package punt_test

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"punt"
	"punt/internal/faultinject"
)

func TestPortfolioDefaultRacesBuiltins(t *testing.T) {
	res, err := punt.New(punt.WithEngine(punt.Portfolio)).Synthesize(context.Background(), punt.Fig1())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Eqn(), "b = a + c") {
		t.Errorf("portfolio result:\n%s", res.Eqn())
	}
	if len(res.Stats.Contenders) != 3 {
		t.Fatalf("contenders = %+v, want the three builtin engines", res.Stats.Contenders)
	}
	winners := 0
	for _, c := range res.Stats.Contenders {
		if c.Winner {
			winners++
			if c.Engine != res.Stats.Backend {
				t.Errorf("winner %q does not match Stats.Backend %q", c.Engine, res.Stats.Backend)
			}
		}
	}
	if winners != 1 {
		t.Errorf("exactly one contender must win, got %d", winners)
	}
	if !strings.Contains(res.Stats.String(), "portfolio=[") {
		t.Errorf("Stats.String() should carry the breakdown: %s", res.Stats.String())
	}
}

func TestPortfolioDeterministicWinnerWithOneWorker(t *testing.T) {
	// With a single worker the contenders run sequentially in the configured
	// order, so the first capable engine always wins.
	for run := 0; run < 3; run++ {
		res, err := punt.New(
			punt.WithContenders(punt.Explicit, punt.Unfolding, punt.Symbolic),
			punt.WithWorkers(1),
		).Synthesize(context.Background(), punt.Fig1())
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Backend != "explicit" {
			t.Fatalf("run %d: winner = %q, want the first-listed explicit engine", run, res.Stats.Backend)
		}
		cs := res.Stats.Contenders
		if len(cs) != 3 || !cs[0].Winner {
			t.Fatalf("run %d: contenders = %+v", run, cs)
		}
		for _, c := range cs[1:] {
			if c.Started {
				t.Errorf("run %d: %s started although a winner already existed", run, c.Engine)
			}
		}
	}
}

func TestPortfolioCancelsLosersPromptly(t *testing.T) {
	// Race a backend that blocks until cancellation against the real
	// unfolding flow: the moment the unfolding engine wins, the sleeper must
	// be cancelled — in milliseconds, not after its two-minute timeout — and
	// no contender goroutine may outlive the call.
	defer faultinject.LeakCheck(t)()
	start := time.Now()
	res, err := punt.New(
		punt.WithContenders("test-sleeper", "unfolding"),
		punt.WithWorkers(2),
	).Synthesize(context.Background(), punt.Fig1())
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Backend != "unfolding" {
		t.Fatalf("winner = %q", res.Stats.Backend)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("portfolio took %v: the losing sleeper was not cancelled promptly", elapsed)
	}
	var loser punt.Contender
	for _, c := range res.Stats.Contenders {
		if c.Engine == "test-sleeper" {
			loser = c
		}
	}
	if !loser.Started {
		t.Fatalf("sleeper never started: %+v", res.Stats.Contenders)
	}
	if !errors.Is(loser.Err, context.Canceled) {
		t.Errorf("loser error = %v, want context.Canceled", loser.Err)
	}
	theSleeper.mu.Lock()
	aborted := append([]time.Duration(nil), theSleeper.aborted...)
	theSleeper.mu.Unlock()
	if len(aborted) == 0 {
		t.Fatal("sleeper did not record its cancellation")
	}
	// The sleeper's wait is bounded by the winner's synthesis time plus
	// scheduler noise; on any machine that is well under a second for Fig1.
	if last := aborted[len(aborted)-1]; last > 2*time.Second {
		t.Errorf("sleeper waited %v for cancellation", last)
	}
}

func TestPortfolioSurvivesPanickingContender(t *testing.T) {
	res, err := punt.New(
		punt.WithContenders("test-panic", "unfolding"),
		punt.WithWorkers(2),
	).Synthesize(context.Background(), punt.Fig1())
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Backend != "unfolding" {
		t.Fatalf("winner = %q", res.Stats.Backend)
	}
	for _, c := range res.Stats.Contenders {
		if c.Engine == "test-panic" && c.Err != nil && !strings.Contains(c.Err.Error(), "panicked") {
			t.Errorf("panicking contender error = %v", c.Err)
		}
	}
}

func TestPortfolioAllFailReturnsFirstDiagnostic(t *testing.T) {
	// Both contenders run out of budget; the error must be the first-listed
	// contender's diagnostic, deterministically.
	_, err := punt.New(
		punt.WithContenders(punt.Unfolding, punt.Explicit),
		punt.WithMaxEvents(3),
		punt.WithMaxStates(2),
	).Synthesize(context.Background(), punt.MullerPipeline(8))
	if err == nil {
		t.Fatal("portfolio must fail when every contender fails")
	}
	if !errors.Is(err, punt.ErrEventLimit) {
		t.Errorf("error = %v, want the first contender's (unfolding) event-limit diagnostic", err)
	}
	if !errors.Is(err, punt.ErrLimit) {
		t.Errorf("budget overruns must match the unified ErrLimit: %v", err)
	}
}

func TestPortfolioRejectsBadContenderSets(t *testing.T) {
	ctx := context.Background()
	if _, err := punt.New(punt.WithContenders("portfolio")).Synthesize(ctx, punt.Fig1()); err == nil ||
		!strings.Contains(err.Error(), "race itself") {
		t.Errorf("self-racing portfolio: %v", err)
	}
	if _, err := punt.New(punt.WithContenders("unfolding", "unfolding")).Synthesize(ctx, punt.Fig1()); err == nil ||
		!strings.Contains(err.Error(), "duplicate") {
		t.Errorf("duplicate contender: %v", err)
	}
	if _, err := punt.New(punt.WithContenders("no-such-engine")).Synthesize(ctx, punt.Fig1()); err == nil ||
		!strings.Contains(err.Error(), "no backend") {
		t.Errorf("unknown contender: %v", err)
	}
}

func TestPortfolioProgressAttribution(t *testing.T) {
	var mu sync.Mutex
	engines := make(map[string]bool)
	res, err := punt.New(
		punt.WithEngine(punt.Portfolio),
		punt.WithProgress(func(p punt.Progress) {
			mu.Lock()
			engines[p.Engine] = true
			mu.Unlock()
		}),
	).Synthesize(context.Background(), punt.Fig1())
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if engines[""] {
		t.Error("portfolio progress delivered without an Engine attribution")
	}
	if !engines[res.Stats.Backend] {
		t.Errorf("no progress attributed to the winner %q: %v", res.Stats.Backend, engines)
	}
	for e := range engines {
		switch e {
		case "unfolding", "explicit", "symbolic":
		default:
			t.Errorf("progress from unexpected engine %q", e)
		}
	}
}

// TestPortfolioVerifiedOnTable1 is the acceptance check: portfolio-mode
// synthesis of every Table 1 specification passes the closed-loop
// verification.
func TestPortfolioVerifiedOnTable1(t *testing.T) {
	synth := punt.New(punt.WithEngine(punt.Portfolio))
	for _, item := range punt.Table1() {
		item := item
		t.Run(item.Name, func(t *testing.T) {
			if testing.Short() && item.Spec.NumSignals() > 12 {
				t.Skip("short mode")
			}
			res, err := synth.Synthesize(context.Background(), item.Spec)
			if err != nil {
				t.Fatalf("portfolio synthesis: %v", err)
			}
			if len(res.Stats.Contenders) == 0 {
				t.Fatal("no contender breakdown recorded")
			}
			if _, err := punt.Verify(context.Background(), item.Spec, res); err != nil {
				t.Errorf("verification: %v", err)
			}
		})
	}
}
