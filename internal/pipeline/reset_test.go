package pipeline

import (
	"reflect"
	"testing"

	"constable/internal/bpred"
	"constable/internal/cache"
	"constable/internal/constable"
	"constable/internal/fsim"
	"constable/internal/workload"
)

// coreArgs builds fresh NewCore arguments (except the hierarchy) for one core
// shape; attachments and streams are stateful, so each core gets its own.
type coreArgs func(t *testing.T) (Config, Attachments, []Stream)

func resetStreams(t *testing.T, threads int) []Stream {
	spec := workload.SmallSuite()[0]
	streams := make([]Stream, threads)
	for i := range streams {
		cpu, err := spec.NewCPU(false)
		if err != nil {
			t.Fatal(err)
		}
		streams[i] = fsim.NewStream(cpu, 20_000)
	}
	return streams
}

func shape(threads int, mutate func(*Config), att func() Attachments) coreArgs {
	return func(t *testing.T) (Config, Attachments, []Stream) {
		cfg := DefaultConfig()
		cfg.Threads = threads
		if mutate != nil {
			mutate(&cfg)
		}
		var a Attachments
		if att != nil {
			a = att()
		}
		return cfg, a, resetStreams(t, threads)
	}
}

// midRun reports whether c has every kind of state Reset must discard: uops
// in flight, a completion event left behind by a squashed uop, a pending
// wrong path, and at least one flush behind it.
func (c *Core) midRun() bool {
	var inFlight, staleEvent, wrongPath bool
	for _, t := range c.threads {
		inFlight = inFlight || t.rob.len() > 0
		wrongPath = wrongPath || t.pendingRedirect != nil
		for _, ev := range t.events.held() {
			staleEvent = staleEvent || ev.u.squashed || ev.u.seq != ev.seq
		}
	}
	return inFlight && staleEvent && wrongPath && c.Stats.Flushes > 0
}

// TestResetMatchesNewCore stops a core mid-run, resets it to a different
// shape and runs it to the end: its Stats and branch predictor must match a
// core NewCore builds from the same arguments.
func TestResetMatchesNewCore(t *testing.T) {
	halfWindow := func(cfg *Config) { cfg.ROBSize /= 2; cfg.RSSize /= 2 }
	withConstable := func() Attachments {
		return Attachments{Constable: constable.New(constable.DefaultConfig())}
	}
	withBimodal := func() Attachments { return Attachments{BPred: bpred.New(bpred.BimodalConfig())} }
	cases := []struct {
		name     string
		from, to coreArgs
	}{
		{"smt2 to 1 thread", shape(2, nil, nil), shape(1, nil, nil)},
		{"1 thread to smt2", shape(1, nil, nil), shape(2, nil, nil)},
		{"smaller ROB and RS", shape(1, nil, nil), shape(1, halfWindow, nil)},
		{"constable to no attachments", shape(1, nil, withConstable), shape(1, nil, nil)},
		{"bpred set to nil", shape(1, nil, withBimodal), shape(1, nil, nil)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg, att, streams := tc.from(t)
			c := NewCore(cfg, att, cache.NewHierarchy(cache.DefaultHierarchyConfig()), streams...)
			for !c.midRun() {
				if c.cycle > 100_000 {
					t.Fatal("no cycle had in-flight uops, a stale event, a wrong path and a flush")
				}
				if err := c.Run(c.cycle + 1); err != nil {
					t.Fatal(err)
				}
			}

			pooled := make([]int, len(c.threads))
			for i, th := range c.threads {
				pooled[i] = th.idq.len() + th.rob.len() + th.limbo.len() + len(th.free)
			}

			cfg, att, streams = tc.to(t)
			c.Reset(cfg, att, cache.NewHierarchy(cache.DefaultHierarchyConfig()), streams...)
			for i, th := range c.threads[:max(len(pooled), len(c.threads))] {
				// Seqs restart at 0, so no event or ready entry of the
				// previous run may survive: its seq snapshot could match.
				if !th.events.restarted() || !th.readyWheel.restarted() || len(th.readyQ) != 0 {
					t.Errorf("thread %d kept completion events or ready entries across Reset", i)
				}
				if i < len(pooled) && len(th.free) != pooled[i] {
					t.Errorf("thread %d has %d free uops after Reset, want all %d it had", i, len(th.free), pooled[i])
				}
			}
			cfg, att, streams = tc.to(t)
			fresh := NewCore(cfg, att, cache.NewHierarchy(cache.DefaultHierarchyConfig()), streams...)
			for _, core := range []*Core{c, fresh} {
				if err := core.Run(1_000_000); err != nil {
					t.Fatal(err)
				}
			}
			if !reflect.DeepEqual(c.Stats, fresh.Stats) {
				t.Errorf("reset core Stats differ from a new core's:\nreset %+v\nnew   %+v", c.Stats, fresh.Stats)
			}
			if !reflect.DeepEqual(c.Branch(), fresh.Branch()) {
				t.Error("reset core's branch predictor differs from a new core's")
			}
		})
	}
}

// TestReleaseDropsRunReferences checks that a released core reaches none of
// the objects its run was given, nor any uop through its queues.
func TestReleaseDropsRunReferences(t *testing.T) {
	cfg, att, streams := shape(2, nil, func() Attachments {
		return Attachments{Constable: constable.New(constable.DefaultConfig())}
	})(t)
	c := NewCore(cfg, att, cache.NewHierarchy(cache.DefaultHierarchyConfig()), streams...)
	if err := c.Run(2000); err != nil {
		t.Fatal(err)
	}
	c.Release()
	if c.hier != nil || c.bp != nil || !reflect.DeepEqual(c.att, Attachments{}) {
		t.Error("released core still references its hierarchy, predictor or attachments")
	}
	for i, th := range c.threads {
		if th.stream != nil || th.elar != nil || th.pendingRedirect != nil {
			t.Errorf("thread %d still references its stream, ELAR tracker or redirect", i)
		}
		if th.idq.len()+th.rob.len()+th.limbo.len()+len(th.readyQ)+
			len(th.readyWheel.held())+len(th.events.held()) != 0 {
			t.Errorf("thread %d still holds queued uops", i)
		}
		if len(th.free) == 0 {
			t.Errorf("thread %d returned no uops to its free list", i)
		}
	}
}
