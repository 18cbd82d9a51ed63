package main

import (
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// environment is recorded with every --out result so numbers from
// different machines or commits are not compared by accident.
type environment struct {
	GitSHA     string  `json:"git_sha"`
	GoVersion  string  `json:"go_version"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	// MemcpyMBs is an in-run memory-copy rate, a yardstick for how fast
	// this machine was while the run happened.
	MemcpyMBs float64 `json:"memcpy_mb_s"`
}

func readEnvironment(cfg runConfig, seconds float64) *environment {
	return &environment{
		GitSHA:     gitSHA(),
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed:       cfg.seed,
		Seconds:    seconds,
		MemcpyMBs:  memcpyMBs(),
	}
}

// gitSHA asks git for the checkout's commit; a checkout that is not a
// repository (the driver's) reports "unknown".
func gitSHA() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// memcpyMBs copies a buffer larger than the caches a few times and reports
// the best rate.
func memcpyMBs() float64 {
	const size = 64 << 20
	src, dst := make([]byte, size), make([]byte, size)
	for i := range src {
		src[i] = byte(i)
	}
	var best float64
	for round := 0; round < 3; round++ {
		start := time.Now()
		copy(dst, src)
		if rate := size / 1e6 / time.Since(start).Seconds(); rate > best {
			best = rate
		}
	}
	return best
}
