package engine

// Program content fingerprinting for the serving layer's
// content-addressed inference cache. A program is its spec plus the
// code tensors the spec names, so that is what the fingerprint hashes;
// nothing is kept in step with the spec by hand. Names and the fused
// structure are part of the spec, so a fused and an unfused build of
// one checkpoint hash differently, which is safe: they never share
// cache entries.

import (
	"encoding/json"
	"fmt"

	"torch2chip/internal/tensor"
)

// fnv64 accumulates 64-bit words FNV-1a style.
type fnv64 uint64

func (h *fnv64) word(v uint64) {
	*h ^= fnv64(v)
	*h *= 1099511628211
}

// codes hashes a tensor's shape and codes word by word, independent of
// its storage dtype: equal codes hash equal at any width.
func (h *fnv64) codes(t *tensor.IntTensor) {
	if t == nil {
		h.word(0)
		return
	}
	h.word(uint64(len(t.Shape)))
	for _, d := range t.Shape {
		h.word(uint64(d))
	}
	for i, n := 0, t.Numel(); i < n; i++ {
		h.word(uint64(t.Get(i)))
	}
}

// Fingerprint hashes the program's spec (its JSON encoding) and each
// instruction's weight and positional codes. Equal fingerprints mean
// equal outputs for equal input codes, up to 64-bit collisions, which
// the cache also guards against by comparing the full input codes on
// every hit; a reload that changes any weight, scale, table or the
// graph changes it, so the cache keys on it and invalidates naturally.
func (p *Program) Fingerprint() uint64 {
	h := fnv64(14695981039346656037)
	js, err := json.Marshal(p.Spec())
	if err != nil {
		// Only a NaN or infinite float scale fails to encode; such a
		// program shares its fingerprint with no other Program value.
		js = fmt.Appendf(nil, "%p", p)
	}
	for _, b := range js {
		h.word(uint64(b))
	}
	for i := range p.Instrs {
		h.codes(p.Instrs[i].W)
		h.codes(p.Instrs[i].Pos)
	}
	return uint64(h)
}
