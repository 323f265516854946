package fault

import (
	"fmt"
	"strings"

	"repro/internal/spec"
)

// Parse decodes a -faults spec into a Schedule. The syntax is a
// semicolon-separated list of events, each `kind:key=value,...`:
//
//	slow:node=N,at=T,for=D,x=F[,dev=cpu|gpu]   device-cost multiplier F on
//	                                           node N during [T, T+D)
//	net:node=N,at=T,for=D[,bw=F][,lat=T2]      NIC bandwidth scaled by F
//	                                           and/or latency increased by T2
//	pcie:node=N,at=T,for=D[,bw=F][,lat=T2]     same, for the PCIe link
//	crash:filter=NAME,inst=I,at=T              fail-stop instance I of NAME
//
// Times are seconds, with optional s/ms/us suffixes ("0.5", "500ms").
// Whitespace around events is ignored; empty events are skipped. Malformed
// input returns an error, never panics. Workload-dependent checks (node
// ranges, filter names) happen later, in Apply.
func Parse(s string) (*Schedule, error) {
	evs, err := spec.Items(s, "fault: event", parseEvent)
	if err != nil {
		return nil, err
	}
	return &Schedule{Events: evs}, nil
}

func parseEvent(part string) (Event, error) {
	head, rest, ok := strings.Cut(part, ":")
	if !ok {
		return Event{}, fmt.Errorf("missing ':' after fault kind")
	}
	var kind Kind
	switch strings.TrimSpace(head) {
	case "slow":
		kind = Slow
	case "net":
		kind = Net
	case "pcie":
		kind = PCIe
	case "crash":
		kind = Crash
	default:
		return Event{}, fmt.Errorf("unknown fault kind %q", strings.TrimSpace(head))
	}
	kv, err := spec.ParseKV(rest)
	if err != nil {
		return Event{}, err
	}
	ev := Event{Kind: kind, Dev: DevAll, Factor: 1}
	switch kind {
	case Slow:
		if err := kv.Require("node", "at", "for", "x"); err != nil {
			return Event{}, err
		}
		if ev.Node, err = kv.Int("node"); err != nil {
			return Event{}, err
		}
		if ev.At, err = kv.Time("at"); err != nil {
			return Event{}, err
		}
		if ev.Dur, err = kv.Time("for"); err != nil {
			return Event{}, err
		}
		if ev.Factor, err = kv.Float("x"); err != nil {
			return Event{}, err
		}
		if dev, ok := kv["dev"]; ok {
			switch dev {
			case "cpu":
				ev.Dev = 0
			case "gpu":
				ev.Dev = 1
			default:
				return Event{}, fmt.Errorf("dev must be cpu or gpu, got %q", dev)
			}
			delete(kv, "dev")
		}
	case Net, PCIe:
		if err := kv.Require("node", "at", "for"); err != nil {
			return Event{}, err
		}
		if ev.Node, err = kv.Int("node"); err != nil {
			return Event{}, err
		}
		if ev.At, err = kv.Time("at"); err != nil {
			return Event{}, err
		}
		if ev.Dur, err = kv.Time("for"); err != nil {
			return Event{}, err
		}
		gotEffect := false
		if _, ok := kv["bw"]; ok {
			if ev.Factor, err = kv.Float("bw"); err != nil {
				return Event{}, err
			}
			gotEffect = true
		}
		if _, ok := kv["lat"]; ok {
			if ev.Latency, err = kv.Time("lat"); err != nil {
				return Event{}, err
			}
			gotEffect = true
		}
		if !gotEffect {
			return Event{}, fmt.Errorf("need at least one of bw=, lat=")
		}
	case Crash:
		if err := kv.Require("filter", "inst", "at"); err != nil {
			return Event{}, err
		}
		ev.Filter = kv["filter"]
		delete(kv, "filter")
		if ev.Filter == "" {
			return Event{}, fmt.Errorf("filter name must not be empty")
		}
		if strings.ContainsAny(ev.Filter, ",;:= \t") {
			return Event{}, fmt.Errorf("filter name %q contains reserved characters", ev.Filter)
		}
		if ev.Instance, err = kv.Int("inst"); err != nil {
			return Event{}, err
		}
		if ev.At, err = kv.Time("at"); err != nil {
			return Event{}, err
		}
	}
	if k, ok := kv.Unknown(); ok {
		return Event{}, fmt.Errorf("unknown key %q for %s fault", k, kind)
	}
	if ev.Node < 0 {
		return Event{}, fmt.Errorf("node must be >= 0")
	}
	if ev.Instance < 0 {
		return Event{}, fmt.Errorf("inst must be >= 0")
	}
	if ev.At < 0 {
		return Event{}, fmt.Errorf("at must be >= 0")
	}
	if kind != Crash && ev.Dur <= 0 {
		return Event{}, fmt.Errorf("for must be > 0")
	}
	if ev.Factor <= 0 {
		return Event{}, fmt.Errorf("multiplier must be > 0")
	}
	if ev.Latency < 0 {
		return Event{}, fmt.Errorf("lat must be >= 0")
	}
	return ev, nil
}
