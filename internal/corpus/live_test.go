package corpus

import "testing"

func tinyLive(t *testing.T, cfg LiveConfig) *Live {
	t.Helper()
	lv, err := NewLive(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return lv
}

func TestLiveDeterministic(t *testing.T) {
	cfg := LiveConfig{Base: Tiny(), ReserveItems: 40, LaunchEvery: 10, DriftEvery: 50}
	a, b := tinyLive(t, cfg), tinyLive(t, cfg)
	for i := 0; i < 500; i++ {
		sa, sb := a.Next(), b.Next()
		if sa.UserType != sb.UserType || len(sa.Items) != len(sb.Items) {
			t.Fatalf("session %d shape differs", i)
		}
		for j := range sa.Items {
			if sa.Items[j] != sb.Items[j] {
				t.Fatalf("session %d item %d: %d vs %d", i, j, sa.Items[j], sb.Items[j])
			}
		}
	}
}

func TestLiveLaunchSchedule(t *testing.T) {
	base := Tiny()
	lv := tinyLive(t, LiveConfig{Base: base, ReserveItems: 20, LaunchEvery: 5})
	if lv.visible != base.NumItems {
		t.Fatalf("visible at start %d, want %d", lv.visible, base.NumItems)
	}
	seen := make(map[int32]bool)
	for i := 0; i < 200; i++ {
		s := lv.Next()
		for _, it := range s.Items {
			if int(it) >= lv.visible && !seen[it] {
				t.Fatalf("session %d contains unlaunched item %d (visible %d)", i, it, lv.visible)
			}
			seen[it] = true
		}
	}
	// 200 sessions at one launch per 5 sessions: all 20 reserved items out.
	if lv.visible != base.NumItems+20 {
		t.Fatalf("visible after 200 sessions %d, want %d", lv.visible, base.NumItems+20)
	}
	if got := len(lv.Launched()); got != 20 {
		t.Fatalf("launched %d, want 20", got)
	}
	// Universe dict covers reserved items (SI available before launch).
	if lv.Dict.NumItems != base.NumItems+20 {
		t.Fatalf("dict covers %d items, want %d", lv.Dict.NumItems, base.NumItems+20)
	}
}

func TestLiveDriftChangesPopularHeads(t *testing.T) {
	cfg := LiveConfig{Base: Tiny(), DriftEvery: 100}
	lv := tinyLive(t, cfg)
	countTop := func(n int) map[int32]int {
		counts := make(map[int32]int)
		for i := 0; i < n; i++ {
			for _, it := range lv.Next().Items {
				counts[it]++
			}
		}
		return counts
	}
	before := countTop(100) // phase 0 throughout
	for i := 0; i < 400; i++ {
		lv.Next() // advance several drift phases
	}
	after := countTop(100)
	// The hottest items of the early window should have lost their crown:
	// compare each window's single most-clicked item.
	argmax := func(m map[int32]int) (best int32, n int) {
		for it, c := range m {
			if c > n || (c == n && it < best) {
				best, n = it, c
			}
		}
		return
	}
	b, _ := argmax(before)
	a, _ := argmax(after)
	if a == b {
		t.Fatalf("most-clicked item %d unchanged across drift phases", b)
	}
}

func TestLiveNoReserveNoDriftMatchesStationaryStream(t *testing.T) {
	lv := tinyLive(t, LiveConfig{Base: Tiny()})
	for i := 0; i < 100; i++ {
		s := lv.Next()
		if len(s.Items) == 0 {
			t.Fatalf("session %d empty", i)
		}
		for _, it := range s.Items {
			if int(it) >= lv.visible {
				t.Fatalf("item %d out of range", it)
			}
		}
	}
}
