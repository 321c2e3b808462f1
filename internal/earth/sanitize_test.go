package earth

import (
	"bytes"
	"encoding/json"
	"testing"
)

func sampleSanitizeReport() *SanitizeReport {
	f1 := NewFrame(3, 2, 2)
	f1.SetThread(0, body)
	f1.SetThread(1, body)
	f1.InitSync(0, 1, 0, 0)
	f1.InitSync(1, 2, 0, 1)
	f1.BeginSanitize()
	fired, _ := f1.Dec(0)
	if !fired {
		panic("slot 0 did not fire")
	}
	f1.ThreadBody(0)
	f1.Dec(0) // overflow
	f1.Dec(1) // slot 1 left pending at 1; thread 1 never runs

	f2 := NewFrame(0, 1, 1)
	f2.SetThread(0, body)
	f2.InitSync(0, 3, 0, 0)
	f2.BeginSanitize()
	f2.Dec(0) // pending at 2; thread 0 never runs

	return BuildSanitizeReport([]*Frame{f1, f2})
}

func TestSanitizeReportJSONRoundTrip(t *testing.T) {
	rep := sampleSanitizeReport()
	if rep.Clean() {
		t.Fatal("sample report unexpectedly clean")
	}
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back SanitizeReport
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.FramesTracked != rep.FramesTracked || back.SlotsTracked != rep.SlotsTracked {
		t.Fatalf("tracked counts changed: %+v vs %+v", back, rep)
	}
	if len(back.Findings) != len(rep.Findings) {
		t.Fatalf("finding count changed: %d vs %d", len(back.Findings), len(rep.Findings))
	}
	for i := range rep.Findings {
		if back.Findings[i] != rep.Findings[i] {
			t.Errorf("finding %d: %+v round-tripped to %+v", i, rep.Findings[i], back.Findings[i])
		}
	}
	// Re-marshalling the restored report must reproduce the bytes, so the
	// artifact is stable under read-modify-write tooling.
	b2, err := json.Marshal(&back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b, b2) {
		t.Errorf("re-marshal diverges:\n%s\n%s", b, b2)
	}
	// Unknown kinds must be rejected, not silently mapped.
	if err := back.UnmarshalJSON([]byte(`{"frames_tracked":1,"slots_tracked":1,"findings":[{"kind":"bogus","home":0,"threads":1,"slots":1,"index":0,"frames":1}]}`)); err == nil {
		t.Error("unknown finding kind accepted")
	}
}

func TestSanitizeReportOrderIndependent(t *testing.T) {
	// BuildSanitizeReport is a pure function of frame end states: any
	// permutation of the input slice marshals identically, so the report
	// cannot depend on the order in which an engine discovers frames.
	mk := func() []*Frame {
		var frames []*Frame
		for i := 0; i < 4; i++ {
			f := NewFrame(NodeID(i%2), 1, 1)
			f.SetThread(0, body)
			f.InitSync(0, 1, 0, 0)
			f.BeginSanitize()
			f.Dec(0)
			f.ThreadBody(0)
			f.Dec(0) // one overflow per frame
			frames = append(frames, f)
		}
		return frames
	}
	a := mk()
	b := mk()
	// Reverse b's discovery order.
	for i, j := 0, len(b)-1; i < j; i, j = i+1, j-1 {
		b[i], b[j] = b[j], b[i]
	}
	ja, err := json.Marshal(BuildSanitizeReport(a))
	if err != nil {
		t.Fatal(err)
	}
	jb, err := json.Marshal(BuildSanitizeReport(b))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ja, jb) {
		t.Errorf("report depends on frame order:\n%s\n%s", ja, jb)
	}
	// Two frames on node 0, two on node 1 → two findings with Frames=2.
	rep := BuildSanitizeReport(a)
	if len(rep.Findings) != 2 || rep.Findings[0].Frames != 2 || rep.Findings[1].Frames != 2 {
		t.Errorf("aggregation wrong:\n%s", rep)
	}
}

func TestStatsSanitizeOmittedWhenNil(t *testing.T) {
	// Unsanitized runs must keep their stats artifacts byte-identical to
	// pre-sanitizer versions: no "sanitize" key at all.
	var st Stats
	b, err := json.Marshal(&st)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(b, []byte("sanitize")) {
		t.Errorf("nil sanitize report leaked into stats JSON: %s", b)
	}
	st.Sanitize = sampleSanitizeReport()
	b, err = json.Marshal(&st)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(b, []byte(`"sanitize"`)) {
		t.Errorf("sanitize report missing from stats JSON: %s", b)
	}
	var back Stats
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Sanitize == nil || len(back.Sanitize.Findings) != len(st.Sanitize.Findings) {
		t.Error("sanitize report lost in stats round-trip")
	}
}
