// The reducing-speed monitor measures the "reducing speed" of compression
// methods — the paper's Figure 4 metric: how many bytes per second a CPU can
// remove from a data stream with a given method. The measurement is end-to-end in
// the paper's sense: it reflects the current machine, current load, and the
// data actually being streamed.
//
// A SpeedScale knob stands in for the paper's hardware diversity (Sun-Fire
// 280R vs the ~2× slower Ultra-Sparc) and for CPU contention: scaling the
// measured speed down is indistinguishable, to the selector, from running
// on a slower or busier machine.

package experiments

import (
	"sync"
	"time"

	"ccx/internal/codec"
)

// Measurement is one method's observed compression behaviour on a data
// sample.
type Measurement struct {
	Method codec.Method
	// CompressTime and DecompressTime are per-sample wall times.
	CompressTime   time.Duration
	DecompressTime time.Duration
	// InLen and OutLen are the sample's original and compressed sizes.
	InLen, OutLen int
	// ReducingSpeed is (InLen-OutLen)/CompressTime in bytes/s (0 when the
	// sample did not shrink).
	ReducingSpeed float64
	// Ratio is OutLen/InLen.
	Ratio float64
}

// Calibrator measures methods on representative data. It is safe for
// concurrent use.
type Calibrator struct {
	// Registry supplies codecs (the built-ins plus arithmetic when nil).
	Registry *codec.Registry
	// SpeedScale divides measured speeds and multiplies measured times,
	// emulating a slower CPU. Values ≤ 0 mean 1.
	SpeedScale float64
	// Now supplies timestamps; defaults to time.Now.
	Now func() time.Time

	mu     sync.Mutex
	latest map[codec.Method]Measurement
}

// scale returns the effective CPU slowdown factor.
func (c *Calibrator) scale() float64 {
	if c.SpeedScale <= 0 {
		return 1
	}
	return c.SpeedScale
}

func (c *Calibrator) now() time.Time {
	if c.Now != nil {
		return c.Now()
	}
	return time.Now()
}

func (c *Calibrator) registry() *codec.Registry {
	if c.Registry != nil {
		return c.Registry
	}
	return paperCodecs
}

// Measure runs one method over data and records the result.
func (c *Calibrator) Measure(m codec.Method, data []byte) (Measurement, error) {
	cd, err := c.registry().Get(m)
	if err != nil {
		return Measurement{}, err
	}
	res := Measurement{Method: m, InLen: len(data)}
	start := c.now()
	out, err := cd.Compress(data)
	res.CompressTime = time.Duration(float64(c.now().Sub(start)) * c.scale())
	if err != nil {
		return res, err
	}
	res.OutLen = len(out)
	if len(data) > 0 {
		res.Ratio = float64(len(out)) / float64(len(data))
	}
	start = c.now()
	if _, err := cd.Decompress(out, len(data)); err != nil {
		return res, err
	}
	res.DecompressTime = time.Duration(float64(c.now().Sub(start)) * c.scale())
	if reduced := res.InLen - res.OutLen; reduced > 0 && res.CompressTime > 0 {
		res.ReducingSpeed = float64(reduced) / res.CompressTime.Seconds()
	}
	c.mu.Lock()
	if c.latest == nil {
		c.latest = make(map[codec.Method]Measurement, 8)
	}
	c.latest[m] = res
	c.mu.Unlock()
	return res, nil
}

// Latest returns the most recent measurement for m, if any.
func (c *Calibrator) Latest(m codec.Method) (Measurement, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	res, ok := c.latest[m]
	return res, ok
}

// ReducingSpeed returns the latest reducing speed for m, or 0 when unknown.
func (c *Calibrator) ReducingSpeed(m codec.Method) float64 {
	res, ok := c.Latest(m)
	if !ok {
		return 0
	}
	return res.ReducingSpeed
}
