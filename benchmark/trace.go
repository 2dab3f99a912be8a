package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans are
// recorded by the benchmark around its own calls; the program is not
// instrumented. They are kept in memory and written when the run ends.
type span struct {
	Name       string
	Start, End time.Time
	Parent     int // index of the span that caused this one, -1 for none
	Req        int // request identifier, -1 for none
}

// spanLog collects spans. A nil spanLog, as an untraced run has,
// records nothing.
type spanLog struct {
	mu    sync.Mutex
	spans []span
	ids   int
}

// add records a finished span and returns its index.
func (l *spanLog) add(s span) int {
	if l == nil {
		return -1
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, s)
	return len(l.spans) - 1
}

// open records a span that starts now; end closes it.
func (l *spanLog) open(name string, parent int) int {
	return l.add(span{Name: name, Start: time.Now(), Parent: parent, Req: -1})
}

func (l *spanLog) end(i int) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.spans[i].End = time.Now()
	l.mu.Unlock()
}

// reserveIDs returns the first of n fresh request identifiers.
func (l *spanLog) reserveIDs(n int) int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	first := l.ids
	l.ids += n
	return first
}

// writeChrome writes the spans as Chrome trace-event JSON, which
// chrome://tracing and ui.perfetto.dev open. A span is drawn one row
// below its parent; spans that overlap on a row, as the requests of the
// open loop do, move to the next free row.
func (l *spanLog) writeChrome(path string) error {
	l.mu.Lock()
	spans := slices.Clone(l.spans)
	l.mu.Unlock()
	if len(spans) == 0 {
		return nil
	}
	origin := spans[0].Start
	order := make([]int, len(spans))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return spans[a].Start.Compare(spans[b].Start) })
	row := make([]int, len(spans))
	var rowEnd []time.Time
	for _, i := range order {
		s := spans[i]
		r := 0
		if s.Parent >= 0 {
			r = row[s.Parent] + 1
		}
		for r < len(rowEnd) && rowEnd[r].After(s.Start) {
			r++
		}
		for len(rowEnd) <= r {
			rowEnd = append(rowEnd, time.Time{})
		}
		row[i], rowEnd[r] = r, s.End
	}

	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`  // µs
		Dur  float64        `json:"dur"` // µs
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	enc := json.NewEncoder(w)
	_, _ = w.WriteString(`{"traceEvents":[` + "\n")
	for n, i := range order {
		s := spans[i]
		if n > 0 {
			_, _ = w.WriteString(",")
		}
		err = enc.Encode(event{
			Name: s.Name, Ph: "X", Pid: 1, Tid: row[i],
			Ts:   float64(s.Start.Sub(origin)) / 1e3,
			Dur:  float64(s.End.Sub(s.Start)) / 1e3,
			Args: map[string]int{"span": i, "parent": s.Parent, "request": s.Req},
		})
		if err != nil {
			break
		}
	}
	_, _ = w.WriteString("]}\n")
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
