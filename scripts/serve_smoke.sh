#!/usr/bin/env bash
# End-to-end serving smoke test: compile a quick model, start the HTTP
# server, check /healthz and a predict response, fire a concurrent curl
# burst, verify /metrics counted it, and shut the server down gracefully.
# Run from the repo root; CI runs this on every push. No child process
# outlives the script.
set -euo pipefail

OUT=$(mktemp -d)
PORT="${SERVE_SMOKE_PORT:-18080}"
URL="http://127.0.0.1:${PORT}"
SERVER_PID=""
LOAD_PIDS=()

# stop_server sends SIGTERM, gives the server 15 s to drain and exit,
# SIGKILLs it past that, and returns its exit status.
stop_server() {
  kill -TERM "$1" 2>/dev/null || true
  for _ in $(seq 1 150); do
    kill -0 "$1" 2>/dev/null || break
    sleep 0.1
  done
  kill -KILL "$1" 2>/dev/null && echo "server ignored SIGTERM for 15 s" >&2
  wait "$1"
}

# cleanup stops the burst loops (each reaps its own curl, so none is
# orphaned), then the server.
cleanup() {
  touch "$OUT/stop"
  pkill -f -- "$OUT/inputs/" 2>/dev/null || true
  for p in "${LOAD_PIDS[@]}"; do wait "$p" 2>/dev/null || true; done
  if [ -n "$SERVER_PID" ]; then stop_server "$SERVER_PID" || true; fi
  rm -rf "$OUT"
}
trap cleanup EXIT

echo "== build =="
go build ./...
go build -o "$OUT/t2c" ./cmd/t2c

echo "== compile a quick model =="
"$OUT/t2c" -model resnet20 -dataset cifar10 -trainer qat -epochs 1 \
  -train-n 48 -test-n 16 -formats json -save-inputs 2 -out "$OUT"

echo "== serve without -http fails and names the flag =="
if "$OUT/t2c" serve -ckpt "$OUT/model_int.json" >"$OUT/nohttp.log" 2>&1; then
  echo "t2c serve without -http exited 0"; exit 1
fi
grep -q -- '-http' "$OUT/nohttp.log" || { echo "missing-flag message does not name -http:"; cat "$OUT/nohttp.log"; exit 1; }

echo "== start the HTTP server =="
# Redirect the server's stdio: the background child must not hold the
# script's stdout pipe open after the script exits.
"$OUT/t2c" serve -ckpt "$OUT/model_int.json" -http "127.0.0.1:${PORT}" \
  -trace -pprof >"$OUT/server.log" 2>&1 &
SERVER_PID=$!

echo "== wait for /healthz =="
for i in $(seq 1 50); do
  if curl -fsS "$URL/healthz" >/dev/null 2>&1; then break; fi
  if [ "$i" = 50 ]; then echo "server never became healthy"; cat "$OUT/server.log"; exit 1; fi
  sleep 0.2
done
curl -fsS "$URL/healthz" | grep -q '"ok"'

echo "== predict one exported input =="
PREDICT=$(curl -fsS -X POST --data-binary @"$OUT/inputs/input_000.json" \
  "$URL/v1/models/default:predict")
echo "$PREDICT" | grep -q '"predictions"' || { echo "bad predict response: $PREDICT"; exit 1; }

echo "== hot reload over HTTP =="
RELOAD=$(curl -fsS -X POST --data-binary @"$OUT/model_int.json" "$URL/v1/models/default")
echo "$RELOAD" | grep -q '"version":2' || { echo "bad reload response: $RELOAD"; exit 1; }

echo "== compile + serve a ViT checkpoint =="
"$OUT/t2c" -model vit -dataset cifar10 -trainer qat -epochs 1 \
  -train-n 48 -test-n 16 -formats json -save-inputs 1 -out "$OUT/vit"
curl -fsS -X POST --data-binary @"$OUT/vit/model_int.json" "$URL/v1/models/vit" \
  | grep -q '"version":1' || { echo "vit upload failed"; exit 1; }
VPRED=$(curl -fsS -X POST --data-binary @"$OUT/vit/inputs/input_000.json" \
  "$URL/v1/models/vit:predict")
echo "$VPRED" | grep -q '"predictions"' || { echo "bad vit predict response: $VPRED"; exit 1; }
curl -fsS -X POST --data-binary @"$OUT/vit/model_int.json" "$URL/v1/models/vit" \
  | grep -q '"version":2' || { echo "vit hot reload failed"; exit 1; }

echo "== compile + serve a pruned checkpoint =="
# One-shot magnitude prune before quantize+compile; the sparse
# checkpoint uses the same format, so upload and predict are unchanged.
"$OUT/t2c" -model resnet20 -dataset cifar10 -trainer qat -epochs 1 \
  -train-n 48 -test-n 16 -prune-sparsity 0.7 -formats json -save-inputs 1 \
  -out "$OUT/sparse" | tee "$OUT/sparse.log"
grep -q 'weight sparsity: 70' "$OUT/sparse.log" || { echo "prune summary missing"; exit 1; }
curl -fsS -X POST --data-binary @"$OUT/sparse/model_int.json" "$URL/v1/models/sparse" \
  | grep -q '"version":1' || { echo "sparse upload failed"; exit 1; }
SPRED=$(curl -fsS -X POST --data-binary @"$OUT/sparse/inputs/input_000.json" \
  "$URL/v1/models/sparse:predict")
echo "$SPRED" | grep -q '"predictions"' || { echo "bad sparse predict response: $SPRED"; exit 1; }

echo "== concurrent curl burst =="
# 8 loops of 16 back-to-back POSTs. The payload comes from an exported
# input file, so the burst always matches the compiled model's sample
# shape. Each loop writes one HTTP status per request (000 = no answer).
for c in $(seq 1 8); do
  (
    for _ in $(seq 1 16); do
      [ -e "$OUT/stop" ] && break
      curl -s -o /dev/null -w '%{http_code}\n' --max-time 10 -X POST \
        --data-binary @"$OUT/inputs/input_000.json" \
        "$URL/v1/models/default:predict" || true
    done >"$OUT/codes.$c"
  ) &
  LOAD_PIDS+=("$!")
done
for p in "${LOAD_PIDS[@]}"; do wait "$p"; done
LOAD_PIDS=()
SENT=$(cat "$OUT"/codes.* | wc -l)
OK=$(cat "$OUT"/codes.* | grep -cx 200 || true)
[ "$OK" -gt 0 ] && [ "$OK" = "$SENT" ] || {
  echo "burst: $OK of $SENT requests answered 200:"; sort "$OUT"/codes.* | uniq -c; exit 1
}

echo "== repeated predict is served from the inference cache =="
# The burst repeated input_000.json, and the earlier hot reload kept the
# program fingerprint, so this predict must answer from the warm cache.
CPRED=$(curl -fsS -X POST --data-binary @"$OUT/inputs/input_000.json" \
  "$URL/v1/models/default:predict")
echo "$CPRED" | grep -q '"cached":true' || { echo "repeat predict missed the cache: $CPRED"; exit 1; }

echo "== alternating two inputs moves both cache counters =="
# input_001.json is new to the cache: its first predict misses and
# executes on the post-reload version, the later ones hit.
counter() {
  curl -fsS "$URL/metrics" | sed -n "s/^$1{model=\"default\"} //p"
}
HITS0=$(counter t2c_cache_hits_total)
MISSES0=$(counter t2c_cache_misses_total)
for i in $(seq 0 7); do
  curl -fsS -o /dev/null -X POST --data-binary @"$OUT/inputs/input_00$((i % 2)).json" \
    "$URL/v1/models/default:predict"
done
HITS1=$(counter t2c_cache_hits_total)
MISSES1=$(counter t2c_cache_misses_total)
[ $((HITS1 - HITS0)) -gt 0 ] && [ $((MISSES1 - MISSES0)) -gt 0 ] || {
  echo "cache deltas: hits $HITS0 -> $HITS1, misses $MISSES0 -> $MISSES1"; exit 1
}

echo "== metrics counted the traffic =="
METRICS=$(curl -fsS "$URL/metrics")
echo "$METRICS" | grep -q 't2c_requests_total{model="default",result="ok"}'
echo "$METRICS" | grep -q 't2c_engine_mean_batch{model="default"}'

echo "== metrics expose the cache and scheduler series =="
HITS=$(echo "$METRICS" | sed -n 's/^t2c_cache_hits_total{model="default"} //p')
[ -n "$HITS" ] && [ "$HITS" -gt 0 ] || { echo "cache hits not positive: '$HITS'"; exit 1; }
echo "$METRICS" | grep -q 't2c_cache_hit_rate{model="default"}'
echo "$METRICS" | grep -q 't2c_cache_entries{model="default"}'
echo "$METRICS" | grep -q 't2c_sched_shed_low_total{model="default"}'
echo "$METRICS" | grep -q 't2c_modeled_batch_ns{model="default"}'
echo "$METRICS" | grep -q 't2c_batch_cost_abs_err{model="default"}'
echo "$METRICS" | grep -q 't2c_batch_exec_seconds_count{model="default"}'
echo "$METRICS" | grep -q 't2c_batch_slack_seconds_count{model="default"}'

echo "== metrics expose the observability gauges =="
echo "$METRICS" | grep -q 't2c_request_latency_seconds_count{model="default",result="ok"}'
echo "$METRICS" | grep -q 't2c_queue_depth{model="default"}'
echo "$METRICS" | grep -q 't2c_batch_wait_seconds_count{model="default"}'
# Traced serving aggregates per-op execution-time histograms.
echo "$METRICS" | grep -q 't2c_op_seconds_count{model="default",op="conv"}'

echo "== /debug/trace emits a Chrome trace with the span chain =="
# The dump can run to megabytes after the load burst: grep a file, not a
# pipe, so grep -q's early exit cannot SIGPIPE the producer under pipefail.
curl -fsS -o "$OUT/trace.json" "$URL/debug/trace?model=default"
python3 -c 'import json,sys; d=json.load(open(sys.argv[1])); assert d["traceEvents"], "no events"' "$OUT/trace.json" \
  || { echo "debug/trace is not valid trace JSON"; exit 1; }
for CAT in request queue_wait batch; do
  grep -q "\"cat\":\"$CAT\"" "$OUT/trace.json" || { echo "trace missing $CAT spans"; exit 1; }
done

echo "== pprof answers behind the flag =="
curl -fsS "$URL/debug/pprof/" | grep -qi profile
# A real profile body (CPU profile over one second) must download.
curl -fsS -o "$OUT/cpu.pprof" "$URL/debug/pprof/profile?seconds=1"
[ -s "$OUT/cpu.pprof" ] || { echo "empty pprof profile"; exit 1; }

echo "== metrics expose executor memory gauges =="
echo "$METRICS" | grep -q 't2c_engine_arena_bytes{model="default"}'
echo "$METRICS" | grep -q 't2c_engine_scratch_bytes{model="default"}'
# Traffic has flowed, so the serving version holds at least one planned
# arena: the gauge must be a positive number.
ARENA=$(echo "$METRICS" | sed -n 's/^t2c_engine_arena_bytes{model="default"} //p')
[ -n "$ARENA" ] && [ "$ARENA" -gt 0 ] || { echo "arena gauge not positive: '$ARENA'"; exit 1; }

echo "== metrics expose sparsity gauges for the pruned model =="
echo "$METRICS" | grep -q 't2c_engine_weight_sparsity{model="sparse"}'
echo "$METRICS" | grep -q 't2c_engine_skip_fraction{model="sparse"}'
# 70% of the weights are exactly zero, so the gauge must read ≥ 0.6.
WSP=$(echo "$METRICS" | sed -n 's/^t2c_engine_weight_sparsity{model="sparse"} //p')
python3 -c "import sys; sys.exit(0 if float('$WSP') >= 0.6 else 1)" \
  || { echo "weight sparsity gauge too low: '$WSP'"; exit 1; }

echo "== SIGTERM shuts the server down gracefully =="
STATUS=0
stop_server "$SERVER_PID" || STATUS=$?
SERVER_PID=""
[ "$STATUS" = 0 ] || { echo "server exited with status $STATUS"; cat "$OUT/server.log"; exit 1; }
grep -q 'shutting down' "$OUT/server.log" || { echo "no shutdown line in the server log"; cat "$OUT/server.log"; exit 1; }

echo "serve smoke OK"
