package arith

import (
	"ccx/internal/bitio"
)

// Order-1 adaptive arithmetic coding: one adaptive model per preceding
// byte, capturing first-order context the paper's order-0 methods miss.
// This is the kind of "improved compression algorithm" §3.2 envisions
// deploying at runtime through the middleware's open method registry:
// no wire-format change, just a new codec identifier.
//
// Context models are materialized lazily — most byte pairs never occur, so
// a 256-entry model array would mostly be cold cache lines.

// CompressOrder1 encodes src with an order-1 adaptive model.
func CompressOrder1(src []byte) ([]byte, error) {
	if len(src) == 0 {
		return nil, nil
	}
	var models [256]*model
	getModel := func(ctx byte) *model {
		m := models[ctx]
		if m == nil {
			m = newModel()
			models[ctx] = m
		}
		return m
	}
	w := bitio.NewWriter(len(src)/2 + 64)
	low, high := uint64(0), full-1
	pending := 0
	emit := func(bit int) {
		w.WriteBit(bit)
		inv := 1 - bit
		for ; pending > 0; pending-- {
			w.WriteBit(inv)
		}
	}
	ctx := byte(0)
	for i, b := range src {
		yield(i)
		m := getModel(ctx)
		sym := int(b)
		total := uint64(m.total)
		cumLo := uint64(m.cumBefore(sym))
		cumHi := cumLo + uint64(m.freq[sym])
		span := high - low + 1
		high = low + span*cumHi/total - 1
		low = low + span*cumLo/total
		for {
			switch {
			case high < half:
				emit(0)
			case low >= half:
				emit(1)
				low -= half
				high -= half
			case low >= quarter && high < half+quarter:
				pending++
				low -= quarter
				high -= quarter
			default:
				goto settled
			}
			low <<= 1
			high = high<<1 | 1
		}
	settled:
		m.update(sym)
		ctx = b
	}
	pending++
	if low < quarter {
		emit(0)
	} else {
		emit(1)
	}
	return w.Bytes(), nil
}

// DecompressOrder1 reverses CompressOrder1, producing exactly origLen bytes.
func DecompressOrder1(src []byte, origLen int) ([]byte, error) {
	if origLen == 0 {
		return nil, nil
	}
	var models [256]*model
	getModel := func(ctx byte) *model {
		m := models[ctx]
		if m == nil {
			m = newModel()
			models[ctx] = m
		}
		return m
	}
	r := bitio.NewReader(src)
	readBit := func() uint64 {
		bit, err := r.ReadBit()
		if err != nil {
			return 0
		}
		return uint64(bit)
	}
	var value uint64
	for i := 0; i < codeBits; i++ {
		value = value<<1 | readBit()
	}
	low, high := uint64(0), full-1
	dst := make([]byte, origLen)
	ctx := byte(0)
	for i := 0; i < origLen; i++ {
		yield(i)
		m := getModel(ctx)
		total := uint64(m.total)
		span := high - low + 1
		target := ((value-low+1)*total - 1) / span
		if target >= total {
			return nil, ErrCorrupt
		}
		sym, cum := m.find(uint32(target))
		cumLo := uint64(cum)
		cumHi := cumLo + uint64(m.freq[sym])
		high = low + span*cumHi/total - 1
		low = low + span*cumLo/total
		for {
			switch {
			case high < half:
				// nothing
			case low >= half:
				low -= half
				high -= half
				value -= half
			case low >= quarter && high < half+quarter:
				low -= quarter
				high -= quarter
				value -= quarter
			default:
				goto settled
			}
			low <<= 1
			high = high<<1 | 1
			value = value<<1 | readBit()
		}
	settled:
		dst[i] = byte(sym)
		m.update(sym)
		ctx = byte(sym)
	}
	return dst, nil
}
