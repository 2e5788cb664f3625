package dist

import "testing"

// CostModel honesty: Stats.BytesSent models a remote call's payload as lr,
// entry count, per-entry context counts, context ids and one vector per
// entry out, one gradient per entry back. The TCP transport measures what
// actually crosses the wire — the same payload plus frame overhead (length
// prefix, kind, request id: 26 bytes per round trip at any dim). With no
// retry the two differ by exactly that; with retries both sides move
// together and measured/modeled stays near 1. A model that drifted from the
// wire (say a forgotten payload term) would leave the band immediately.
func TestCostModelBytesMatchTCPWire(t *testing.T) {
	ds, seqs, part := tinySetup(t, 3)
	opt := tinyOptions(3)
	opt.Transport = TransportTCP
	opt.HotReplication = false // hot syncs are modeled but never cross the wire
	_, st, err := Train(ds.Dict.Dict, seqs, part, opt)
	if err != nil {
		t.Fatal(err)
	}
	if st.RemotePairs == 0 {
		t.Fatal("scenario trained no remote pairs; nothing to validate")
	}
	ratio := float64(st.WireBytesSent) / float64(st.BytesSent)
	if ratio < 1.0 || ratio > 1.35 {
		t.Fatalf("measured %d B vs modeled %d B (ratio %.3f, want [1.00, 1.35])",
			st.WireBytesSent, st.BytesSent, ratio)
	}
	if st.Retries != 0 {
		t.Logf("%d retries, exact byte formula not checked", st.Retries)
		return
	}
	// modeled = 8·calls + 4·pairs + (4 + 2·4·dim)·entries. Entries are not
	// in Stats; the formula holds iff what is left after the call and pair
	// terms is a whole number of entries, between one per call and one per
	// pair.
	perEntry := uint64(4 + 8*opt.Dim)
	rest := st.BytesSent - 8*st.RemoteCalls - 4*st.RemotePairs
	entries := rest / perEntry
	if rest%perEntry != 0 || entries < st.RemoteCalls || entries > st.RemotePairs {
		t.Fatalf("modeled %d B is not 8·%d calls + 4·%d pairs + %d·entries (left %d B, %d entries)",
			st.BytesSent, st.RemoteCalls, st.RemotePairs, perEntry, rest, entries)
	}
	if want := st.BytesSent + 26*st.RemoteCalls; st.WireBytesSent != want {
		t.Fatalf("measured %d B, want modeled %d + 26 B framing × %d calls = %d",
			st.WireBytesSent, st.BytesSent, st.RemoteCalls, want)
	}
}
