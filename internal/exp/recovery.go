package exp

import (
	"proxygraph/internal/apps"
	"proxygraph/internal/engine"
	"proxygraph/internal/fault"
	"proxygraph/internal/gen"
	"proxygraph/internal/metrics"
	"proxygraph/internal/partition"
)

// RecoveryStudy sweeps the checkpoint interval against the expected makespan
// under a single machine crash on the c4 ladder: frequent checkpoints pay
// storage stalls on every run, sparse ones replay more lost supersteps after
// a failure. One row per interval; the fault-free column isolates the pure
// checkpoint overhead, the crash columns show recovery cost by the class of
// the machine lost (the ladder's smallest vs its largest), and the final
// column is the restart-from-scratch baseline the checkpoint policy must
// beat. PageRank runs a fixed 20 supersteps (tolerance 0) so every cell does
// identical useful work; the crash fires at the barrier ending step 10.
func (l *Lab) RecoveryStudy() (*metrics.Table, error) {
	cl := LadderC4()
	g, err := l.Graph(gen.RealGraphs()[2])
	if err != nil {
		return nil, err
	}
	// Proxy-guided shares: on a balanced placement losing any machine is a
	// genuine capacity loss. (A uniform split would make the ladder's smallest
	// machine the straggler, and crashing it would speed the run up.)
	systems, err := l.Systems()
	if err != nil {
		return nil, err
	}
	shares, err := l.shares(cl, systems[2], "pagerank")
	if err != nil {
		return nil, err
	}
	pl, err := partition.Apply(partition.NewHybrid(), g, shares, l.Cfg.Seed)
	if err != nil {
		return nil, err
	}
	pr := func() *apps.PageRank {
		p := apps.NewPageRank()
		p.Tolerance = 0
		p.MaxIters = 20
		return p
	}
	const crashStep = 10
	small, big := 0, len(cl.Machines)-1
	crash := func(machine int) *fault.Schedule {
		return &fault.Schedule{Events: []fault.Event{{Kind: fault.Crash, Step: crashStep, Machine: machine}}}
	}
	run := func(inj engine.FaultInjector, every int, policy engine.RecoveryPolicy) (*engine.Result, error) {
		return apps.Run(pr(), pl, cl, engine.Options{
			Fault: &engine.FaultConfig{
				Injector:        inj,
				CheckpointEvery: every,
				Policy:          policy,
			},
			Trace: l.Cfg.Collector,
		})
	}

	base, err := l.runApp(pr(), pl, cl)
	if err != nil {
		return nil, err
	}

	t := metrics.NewTable("Checkpoint interval vs recovery cost (pagerank, c4 ladder, crash at step 10)",
		"interval", "fault-free", "ckpt overhead",
		"crash "+cl.Machines[small].Name, "crash "+cl.Machines[big].Name, "full restart")
	for _, every := range []int{1, 2, 4, 8} {
		clean, err := run(nil, every, engine.RecoverCheckpoint)
		if err != nil {
			return nil, err
		}
		crashSmall, err := run(crash(small), every, engine.RecoverCheckpoint)
		if err != nil {
			return nil, err
		}
		crashBig, err := run(crash(big), every, engine.RecoverCheckpoint)
		if err != nil {
			return nil, err
		}
		restart, err := run(crash(small), every, engine.RecoverRestart)
		if err != nil {
			return nil, err
		}
		t.AddRow(
			metrics.F(float64(every), 0),
			metrics.Seconds(clean.SimSeconds),
			metrics.Pct(clean.SimSeconds/base.SimSeconds-1),
			metrics.Seconds(crashSmall.SimSeconds),
			metrics.Seconds(crashBig.SimSeconds),
			metrics.Seconds(restart.SimSeconds))
	}
	t.AddNote("fault-free baseline without checkpointing: %s"+
		"; survivors absorb the dead machine's edges, so losing the ladder's largest machine costs more than losing its smallest",
		metrics.Seconds(base.SimSeconds))
	return t, nil
}
