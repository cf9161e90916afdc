package sim

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/rat"
)

func TestJSONRoundTrip(t *testing.T) {
	cfg := twoProcConfig(4)
	cfg.Faults = map[ProcessID]Fault{1: Crash(3)}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	orig := res.Trace

	var buf bytes.Buffer
	if err := orig.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.N != orig.N || len(back.Events) != len(orig.Events) || len(back.Msgs) != len(orig.Msgs) {
		t.Fatalf("shape mismatch: N=%d/%d events=%d/%d msgs=%d/%d",
			back.N, orig.N, len(back.Events), len(orig.Events), len(back.Msgs), len(orig.Msgs))
	}
	for i := range orig.Events {
		a, b := orig.Events[i], back.Events[i]
		if a.Proc != b.Proc || a.Index != b.Index || !a.Time.Equal(b.Time) ||
			a.Trigger != b.Trigger || a.Processed != b.Processed {
			t.Fatalf("event %d mismatch: %+v vs %+v", i, a, b)
		}
	}
	for i := range orig.Msgs {
		a, b := orig.Msgs[i], back.Msgs[i]
		if a.From != b.From || a.To != b.To || a.SendStep != b.SendStep ||
			!a.SendTime.Equal(b.SendTime) || !a.RecvTime.Equal(b.RecvTime) ||
			a.IsWakeup() != b.IsWakeup() {
			t.Fatalf("message %d mismatch: %+v vs %+v", i, a, b)
		}
	}
	if back.Faulty[1] != true {
		t.Error("faulty flag lost")
	}
}

func TestJSONRationalTimes(t *testing.T) {
	b := NewTraceBuilder(2)
	b.WakeAll(rat.Zero)
	b.Msg(0, 0, 1, rat.New(7, 3), "x")
	tr := b.MustBuild()
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "7/3") {
		t.Error("rational time not serialized exactly")
	}
	back, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Msgs[2].RecvTime.Equal(rat.New(7, 3)) {
		t.Error("rational time not parsed back exactly")
	}
}

func TestReadJSONRejectsGarbage(t *testing.T) {
	if _, err := ReadJSON(strings.NewReader("{not json")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := ReadJSON(strings.NewReader(`{"n":0}`)); err == nil {
		t.Error("invalid trace accepted")
	}
	if _, err := ReadJSON(strings.NewReader(
		`{"n":1,"faulty":[false],"events":[{"proc":0,"index":0,"time":"x","trigger":0,"processed":true}],"messages":[]}`)); err == nil {
		t.Error("bad time accepted")
	}
}

// twoProcTrace is a valid 2-process trace skeleton: both wake-ups at time
// 0, then one delivery of message 2 to p1 at time 1. Its last message is
// spliced in by each case.
func twoProcTrace(lastMsg string) string {
	return `{"n":2,"faulty":[false,false],"events":[` +
		`{"proc":0,"index":0,"time":"0","trigger":0,"processed":true},` +
		`{"proc":1,"index":0,"time":"0","trigger":1,"processed":true},` +
		`{"proc":1,"index":1,"time":"1","trigger":2,"processed":true}],"messages":[` +
		`{"id":0,"from":-1,"to":0,"sendStep":-1,"sendTime":"0","recvTime":"0","wakeup":true},` +
		`{"id":1,"from":-1,"to":1,"sendStep":-1,"sendTime":"0","recvTime":"0","wakeup":true},` +
		lastMsg + `]}`
}

// MalformedTraces are trace documents ReadJSON must reject with an error
// — never exhaust memory, panic, or accept. The fuzz target in package
// sim_test seeds its corpus with them.
var MalformedTraces = []struct {
	Name, JSON, Want string
}{
	// Regressions: each once ran out of memory, panicked in
	// causality.Build, or was accepted with a silently dropped edge.
	{"huge-n", `{"n":1000000000000,"faulty":[],"events":[],"messages":[]}`, "Faulty has length 0"},
	{"sender-out-of-range", twoProcTrace(`{"id":2,"from":7,"to":1,"sendStep":0,"sendTime":"0","recvTime":"1"}`), "sender 7 out of range"},
	{"missing-send-step", twoProcTrace(`{"id":2,"from":0,"to":1,"sendStep":9,"sendTime":"0","recvTime":"1"}`), "p0 does not have"},
	// The rest of the send side.
	{"valid-control", twoProcTrace(`{"id":2,"from":0,"to":1,"sendStep":0,"sendTime":"0","recvTime":"1"}`), ""},
	{"send-time-mismatch", twoProcTrace(`{"id":2,"from":0,"to":1,"sendStep":0,"sendTime":"1/2","recvTime":"1"}`), "send time 1/2 != sending event p0/0 time 0"},
	{"negative-send-step", twoProcTrace(`{"id":2,"from":0,"to":1,"sendStep":-1,"sendTime":"0","recvTime":"1"}`), "has send step -1"},
	{"wakeup-with-step", twoProcTrace(`{"id":2,"from":-1,"to":1,"sendStep":0,"sendTime":"1","recvTime":"1"}`), "wake-up message 2 has send step 0"},
	{"receiver-out-of-range", twoProcTrace(`{"id":2,"from":0,"to":1,"sendStep":0,"sendTime":"0","recvTime":"1"},` +
		`{"id":3,"from":0,"to":-4,"sendStep":0,"sendTime":"0","recvTime":"1"}`), "receiver -4 out of range"},
	{"negative-n", `{"n":-3,"faulty":[],"events":[],"messages":[]}`, "N = -3"},
}

func TestReadJSONRejectsMalformedTraces(t *testing.T) {
	for _, tc := range MalformedTraces {
		t.Run(tc.Name, func(t *testing.T) {
			_, err := ReadJSON(strings.NewReader(tc.JSON))
			switch {
			case tc.Want == "" && err != nil:
				t.Fatalf("valid trace rejected: %v", err)
			case tc.Want != "" && (err == nil || !strings.Contains(err.Error(), tc.Want)):
				t.Fatalf("got %v, want error containing %q", err, tc.Want)
			}
		})
	}
	// Reassemble and TraceBuilder.Build share the shape-first order.
	if _, err := Reassemble(1<<40, nil, nil, nil); err == nil {
		t.Error("Reassemble accepted N=2^40 with no Faulty slice")
	}
	b := NewTraceBuilder(2)
	b.faulty = nil
	if _, err := b.Build(); err == nil {
		t.Error("Build accepted a Faulty slice shorter than N")
	}
}
