package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"

	"waitfreebn/internal/cliopt"
	"waitfreebn/internal/core"
	"waitfreebn/internal/encoding"
	"waitfreebn/internal/serve"
	"waitfreebn/internal/structure"
	"waitfreebn/internal/wal"
)

// bnlearn's own flag defaults (cmd/bnlearn registers these itself rather
// than through cliopt): -epsilon 0.01, -maxcond 6, -alpha 0.01, -gtest off.
const (
	bnlearnEpsilon = 0.01
	bnlearnMaxCond = 6
	bnlearnAlpha   = 0.01
)

// learnConfig resolves the learner configuration bnlearn runs with when
// given no flags: an empty argument list parsed through the shared cliopt
// flag surface, then mapped exactly as cmd/bnlearn maps it. Library zero
// values differ (structure.Config.Freeze is false there, true here).
func learnConfig() (structure.Config, error) {
	fs := flag.NewFlagSet("bnlearn", flag.ContinueOnError)
	coreFl := cliopt.AddCore(fs)
	learnFl := cliopt.AddLearn(fs)
	if err := fs.Parse(nil); err != nil {
		return structure.Config{}, err
	}
	opts, err := coreFl.Options()
	if err != nil {
		return structure.Config{}, err
	}
	cfg := structure.Config{
		Epsilon:      bnlearnEpsilon,
		P:            opts.P,
		MaxCondSet:   bnlearnMaxCond,
		Alpha:        bnlearnAlpha,
		BuildOptions: opts,
	}
	learnFl.Apply(&cfg)
	return cfg, nil
}

// describeLearn renders the resolved learner configuration for the log.
func describeLearn(cfg structure.Config) string {
	o := cfg.BuildOptions
	return fmt.Sprintf("learn config: epsilon=%v maxcond=%d alpha=%v test=%v P=%d schedule=%v phase-par=%v marg-cache=%d freeze=%v | build P=%d partition=%v queue=%v table=%v write-batch=%d hot-split=%v",
		cfg.Epsilon, cfg.MaxCondSet, cfg.Alpha, cfg.Test, cfg.P, cfg.Schedule, cfg.PhasePar, cfg.MargCacheCells, cfg.Freeze,
		o.P, o.Partition, o.Queue, o.Table, o.WriteBatch, o.HotSplit)
}

// serveFlags is the bnserve configuration resolved from its default flags.
type serveFlags struct {
	cfg             serve.Config
	fsync           wal.SyncPolicy
	checkpointEvery int
}

// serveConfig resolves the serving configuration bnserve runs with when
// given no flags other than the codec, mapped exactly as cmd/bnserve maps
// it. Library zero values differ (serve.Config.CoalesceWindow is 0 there,
// 200µs here). The WAL fields are attached by the caller.
func serveConfig(codec *encoding.Codec) (serveFlags, error) {
	fs := flag.NewFlagSet("bnserve", flag.ContinueOnError)
	serveFl := cliopt.AddServe(fs)
	coreFl := cliopt.AddCore(fs)
	if err := fs.Parse(nil); err != nil {
		return serveFlags{}, err
	}
	opts, err := coreFl.Options()
	if err != nil {
		return serveFlags{}, err
	}
	if opts.Refreeze, err = core.ParseFreezeMode(serveFl.Refreeze); err != nil {
		return serveFlags{}, err
	}
	pol, err := wal.ParseSyncPolicy(serveFl.Fsync)
	if err != nil {
		return serveFlags{}, err
	}
	return serveFlags{
		cfg: serve.Config{
			Codec:          codec,
			Build:          opts,
			FreezeP:        serveFl.FreezeP,
			ReadP:          serveFl.ReadP,
			MargCacheCells: serveFl.MargCacheCells,
			CoalesceWindow: serveFl.CoalesceWindow,
			MaxInflight:    serveFl.MaxInflight,
			QueueTimeout:   serveFl.QueueTimeout,
			RequestTimeout: serveFl.RequestTimeout,
			RefreshEvery:   serveFl.RefreshEvery,
			IngestBatch:    serveFl.IngestBatch,
			MaxPending:     serveFl.MaxPending,
			RebalanceEvery: serveFl.RebalanceEvery,
		},
		fsync:           pol,
		checkpointEvery: serveFl.CheckpointEvery,
	}, nil
}

// describeServe renders the resolved serving configuration for the log.
func describeServe(f serveFlags) string {
	c := f.cfg
	return fmt.Sprintf("serve config: read-p=%d freeze-p=%d marg-cache=%d coalesce-window=%v max-inflight=%d queue-timeout=%v request-timeout=%v refresh-every=%v ingest-batch=%d max-pending=%d refreeze=%v rebalance-every=%d fsync=%v checkpoint-every=%d | build P=%d partition=%v queue=%v table=%v",
		c.ReadP, c.FreezeP, c.MargCacheCells, c.CoalesceWindow, c.MaxInflight, c.QueueTimeout, c.RequestTimeout,
		c.RefreshEvery, c.IngestBatch, c.MaxPending, c.Build.Refreeze, c.RebalanceEvery, f.fsync, f.checkpointEvery,
		c.Build.P, c.Build.Partition, c.Build.Queue, c.Build.Table)
}

// hostStamp identifies the machine a result was measured on.
func hostStamp(dir string) string {
	return fmt.Sprintf("host: nproc=%d GOMAXPROCS=%d go=%s cpu=%q fs(%s)=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel(), dir, fsType(dir))
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fsType names the filesystem holding dir from its statfs magic number.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x01021994: "tmpfs", 0x794c7630: "overlayfs", 0x58465342: "xfs",
		0x9123683E: "btrfs", 0x6969: "nfs", 0x65735546: "fuse", 0x2FC12FC1: "zfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// resetPeakRSS returns set-up garbage to the OS and restarts the kernel's
// resident-set high-water mark from the current RSS, so that peakRSSMB
// reports the peak of the phase that follows rather than of the set-up.
func resetPeakRSS() {
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		fmt.Println("peak_rss_mb: cannot reset the high-water mark, reporting the whole run's peak:", err)
	}
}

// peakRSSMB is the resident-set high-water mark (VmHWM) in MB since the last
// resetPeakRSS.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}
