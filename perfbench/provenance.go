package main

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"runtime"
	"strings"
)

// provenanceInfo identifies the host and the run a result came from.
type provenanceInfo struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	// BinarySHA256 hashes the benchmark binary, which holds the code
	// under test, so two runs can be shown to share their code even
	// where the commit is unknown or the tree is not committed.
	BinarySHA256 string `json:"binary_sha256"`
	// ExpectedPinned is false when expected.json has no results for
	// the seed and ops were checked against set-up witnesses only.
	ExpectedPinned bool    `json:"expected_pinned"`
	Seed           uint64  `json:"seed"`
	Seconds        float64 `json:"seconds"`
	Setups         int     `json:"setup_runs"`
	Ops            int     `json:"ops_attempted"`
	Samples        int     `json:"latency_samples"`
	TailPct        int     `json:"tail_percentile"`
	Beyond         int     `json:"samples_beyond_tail"`
	// Of the measured phase: the process's CPU seconds, and the share of
	// the host's CPU time the hypervisor gave to other guests. A high
	// steal share explains a slow run.
	CPUSeconds float64 `json:"phase_cpu_s"`
	StealFrac  float64 `json:"host_steal_frac"`
}

func provenance(commit string, seed uint64, seconds float64, setups, ops, samples int) provenanceInfo {
	return provenanceInfo{
		NumCPU:       runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		CPU:          cpuModel(),
		GoVersion:    runtime.Version(),
		Commit:       commit,
		BinarySHA256: binaryHash(),
		Seed:         seed,
		Seconds:      seconds,
		Setups:       setups,
		Ops:          ops,
		Samples:      samples,
		TailPct:      tailPct,
		Beyond:       beyond(samples, tailPct),
	}
}

// binaryHash returns the SHA-256 of the running executable, or
// "unknown" if it cannot be read.
func binaryHash() string {
	path, err := os.Executable()
	if err != nil {
		return "unknown"
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
