package core

import (
	"context"
	"testing"
	"time"
)

// TestViewVersionStableBetweenCommits: the ETag is a pure function of the
// shard generation vector — repeated reads without commits agree, and a
// commit moves both the ETag and the scalar generation.
func TestViewVersionStableBetweenCommits(t *testing.T) {
	ctx := context.Background()
	ro, _, _ := buildMdO(t, &recordingProgrammer{}, &recordingProgrammer{})

	v1 := ro.ViewVersion()
	if v1.ETag == "" {
		t.Fatal("versioned orchestrator must always name an ETag")
	}
	if v2 := ro.ViewVersion(); v2.ETag != v1.ETag {
		t.Fatalf("ETag moved without a commit: %q -> %q", v1.ETag, v2.ETag)
	}
	view, ver, err := ro.VersionedView(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if view == nil || !view.Sealed() {
		t.Fatal("versioned view must be a sealed snapshot")
	}
	if ver.ETag != v1.ETag {
		t.Fatalf("VersionedView etag %q != ViewVersion etag %q", ver.ETag, v1.ETag)
	}

	if _, err := ro.Install(ctx, chainReq(t, "svc", "sap1", "sap2", "fw")); err != nil {
		t.Fatal(err)
	}
	v3 := ro.ViewVersion()
	if v3.ETag == v1.ETag {
		t.Fatal("commit must move the ETag")
	}
	if v3.Generation <= v1.Generation {
		t.Fatalf("commit must advance the generation: %d -> %d", v1.Generation, v3.Generation)
	}
}

// TestWaitVersionWakesOnCommit: a blocked WaitVersion call returns when a
// commit bumps the epoch past its cursor, and the version it reports is
// never older than what it waited for.
func TestWaitVersionWakesOnCommit(t *testing.T) {
	ctx := context.Background()
	ro, _, _ := buildMdO(t, &recordingProgrammer{}, &recordingProgrammer{})
	from := ro.ViewVersion().Generation

	type result struct {
		ver ViewVersion
		err error
	}
	done := make(chan result, 1)
	go func() {
		ver, err := ro.WaitVersion(context.Background(), from)
		done <- result{ver, err}
	}()
	select {
	case r := <-done:
		t.Fatalf("WaitVersion returned before any commit: %+v %v", r.ver, r.err)
	case <-time.After(50 * time.Millisecond):
	}

	if _, err := ro.Install(ctx, chainReq(t, "svc", "sap1", "sap2", "fw")); err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-done:
		if r.err != nil {
			t.Fatal(r.err)
		}
		if r.ver.Generation <= from {
			t.Fatalf("woke at generation %d, waited past %d", r.ver.Generation, from)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("WaitVersion missed the commit wakeup")
	}

	// A cursor already behind the current version returns immediately.
	if _, err := ro.WaitVersion(ctx, from); err != nil {
		t.Fatal(err)
	}
}

// TestWaitVersionLocalOrchestrator: the leaf layer shares the wait contract —
// install and remove both wake blocked watchers.
func TestWaitVersionLocalOrchestrator(t *testing.T) {
	ctx := context.Background()
	lo := leafDomain(t, "mn", "sap1", "border", &recordingProgrammer{})
	from := lo.ViewVersion().Generation

	done := make(chan ViewVersion, 1)
	go func() {
		ver, err := lo.WaitVersion(context.Background(), from)
		if err != nil {
			t.Error(err)
		}
		done <- ver
	}()
	time.Sleep(20 * time.Millisecond)
	req := chainReq(t, "svc1", "sap1", "border", "fw")
	req.NFs.Get("svc1-nf").Host = "bisbis@mn"
	if _, err := lo.Install(ctx, req); err != nil {
		t.Fatal(err)
	}
	select {
	case ver := <-done:
		if ver.Generation <= from {
			t.Fatalf("generation did not advance: %d -> %d", from, ver.Generation)
		}
		from = ver.Generation
	case <-time.After(5 * time.Second):
		t.Fatal("install wakeup missed")
	}

	go func() {
		ver, err := lo.WaitVersion(context.Background(), from)
		if err != nil {
			t.Error(err)
		}
		done <- ver
	}()
	time.Sleep(20 * time.Millisecond)
	if err := lo.Remove(ctx, "svc1"); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("remove wakeup missed")
	}
}

// TestWaitVersionHonorsContext: a canceled context unblocks the wait with the
// context's error instead of hanging on the notifier.
func TestWaitVersionHonorsContext(t *testing.T) {
	ro, _, _ := buildMdO(t, &recordingProgrammer{}, &recordingProgrammer{})
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := ro.WaitVersion(ctx, ro.ViewVersion().Generation); err == nil {
		t.Fatal("expired context must surface as an error")
	}
}
