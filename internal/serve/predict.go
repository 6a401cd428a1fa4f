package serve

import (
	"context"
	"encoding/json"
	"io"
	"strconv"

	"repro/internal/sim"
	"repro/internal/trace"
)

// predictFlushBytes is the batch size the predict stream hands to the
// ResponseWriter: pred lines accumulate in the scratch's line buffer and
// are written once at least this many bytes are pending, not line by line.
const predictFlushBytes = 32 << 10

// predictScratch is one predict call's working set, recycled through the
// Server's predict pool: the IBT2 reader (and its 64 KiB buffer), the
// decode block, the first predictor's outcome lane and the NDJSON line
// buffer. Between requests it holds no reference to a request body.
type predictScratch struct {
	tr   trace.Reader
	blk  trace.Block
	lane []sim.Prediction
	out  []byte
}

// getPredictScratch takes a scratch from the pool and points its reader at
// body; the header error, if any, is NewReader's.
func (s *Server) getPredictScratch(body io.Reader) (*predictScratch, error) {
	sc, _ := s.predictPool.Get().(*predictScratch)
	if sc == nil {
		sc = &predictScratch{out: make([]byte, 0, predictFlushBytes+512)}
	}
	return sc, sc.tr.Reset(body)
}

// putPredictScratch detaches the scratch from its request and returns it to
// the pool.
func (s *Server) putPredictScratch(sc *predictScratch) {
	_ = sc.tr.Reset(nil)
	sc.out = sc.out[:0]
	s.predictPool.Put(sc)
}

// stream is the predict call's core loop. It decodes the body block by
// block, replays each block through eng's block engine with the first
// predictor's outcome lane attached, and encodes one pred line per MT
// indirect dispatch into sc.out, writing to w whenever predictFlushBytes
// are pending; the tail below that stays in sc.out for the caller's final
// write. ctx is checked once per block. It returns the decode error —
// io.EOF at a clean end; the records decoded before a mid-stream error
// (sc.tr.Count counts them) have trained eng and been encoded all the same
// — or gone when ctx is done or a write failed: the client is no longer
// listening.
func (sc *predictScratch) stream(ctx context.Context, eng *sim.Engine, w io.Writer) (gone bool, err error) {
	for {
		if ctx.Err() != nil {
			return true, nil
		}
		err = sc.tr.ReadBlock(&sc.blk)
		if sc.blk.Len() > 0 {
			seq := eng.Counters()[0].Lookups
			sc.lane = eng.ProcessBlockPredicted(&sc.blk, sc.lane[:0])
			pcs, tgts, mt := sc.blk.PC, sc.blk.Target, sc.blk.MTIdx[:len(sc.lane)]
			for j, p := range sc.lane {
				k := mt[j]
				seq++
				sc.out = appendPredLine(sc.out, seq, pcs[k], tgts[k], p)
				if len(sc.out) >= predictFlushBytes {
					if _, werr := w.Write(sc.out); werr != nil {
						return true, nil
					}
					sc.out = sc.out[:0]
				}
			}
		}
		if err != nil {
			return false, err
		}
	}
}

// appendPredLine appends one pred line of a predict stream — the NDJSON
// encoding of PredictEvent{Type: "pred", Seq: seq, PC: pc, Actual: actual,
// Predicted: p.Predicted, Correct: p.Correct} with Target set when
// p.Predicted — to dst, byte-identical to json.Encoder's, zero-valued
// omitempty fields omitted. TestAppendPredLineMatchesJSON pins the two.
func appendPredLine(dst []byte, seq, pc, actual uint64, p sim.Prediction) []byte {
	dst = append(dst, `{"type":"pred"`...)
	dst = appendUintField(dst, `,"seq":`, seq)
	dst = appendUintField(dst, `,"pc":`, pc)
	if p.Predicted {
		dst = appendUintField(dst, `,"target":`, p.Target)
	}
	dst = appendUintField(dst, `,"actual":`, actual)
	dst = append(dst, `,"predicted":`...)
	dst = strconv.AppendBool(dst, p.Predicted)
	dst = append(dst, `,"correct":`...)
	dst = strconv.AppendBool(dst, p.Correct)
	return append(dst, "}\n"...)
}

// appendUintField appends key and v, or nothing when v is zero (omitempty).
func appendUintField(dst []byte, key string, v uint64) []byte {
	if v == 0 {
		return dst
	}
	return strconv.AppendUint(append(dst, key...), v, 10)
}

// appendJSONLine appends v's NDJSON line to dst, byte-identical to
// json.Encoder's Encode: the stream's cold terminal lines (done, error).
func appendJSONLine(dst []byte, v any) []byte {
	b, _ := json.Marshal(v)
	return append(append(dst, b...), '\n')
}
