package main

import (
	"math"
	"strings"
	"testing"

	"peerlearn/internal/core"
	"peerlearn/internal/server"
)

func TestCheckRound(t *testing.T) {
	if err := checkRound(server.RoundResponse{Round: 1, Participated: 16, Groups: 4, Gain: 0.5}, 4); err != nil {
		t.Fatalf("good round rejected: %v", err)
	}
	for _, bad := range []server.RoundResponse{
		{Round: 1, Participated: 15, Groups: 4, Gain: 0.5},
		{Round: 1, Participated: 0, Groups: 0},
		{Round: 1, Participated: 16, Groups: 4, Gain: -1e-9},
		{Round: 1, Participated: 16, Groups: 4, Gain: math.NaN()},
	} {
		if checkRound(bad, 4) == nil {
			t.Errorf("bad round %+v accepted", bad)
		}
	}
}

func TestCheckSession(t *testing.T) {
	b := &book{id: 7, members: []int64{1, 2, 3, 4, 5}, rounds: 2, gains: []float64{0.1, 0.2}}
	good := server.SessionStatus{ID: 7, Members: 5, Rounds: 2, TotalGain: 0.1 + 0.2}
	if err := checkSession(good, b); err != nil {
		t.Fatalf("matching status rejected: %v", err)
	}
	for name, st := range map[string]server.SessionStatus{
		"off-by-one roster": {ID: 7, Members: 6, Rounds: 2, TotalGain: 0.3},
		"missed round":      {ID: 7, Members: 5, Rounds: 3, TotalGain: 0.3},
		"gain mismatch":     {ID: 7, Members: 5, Rounds: 2, TotalGain: 0.3001},
	} {
		if checkSession(st, b) == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestCheckRecovered(t *testing.T) {
	before := map[int64]server.SessionStatus{1: {ID: 1, Members: 16, Rounds: 3, TotalGain: 1.25}}
	same := map[int64]server.SessionStatus{1: {ID: 1, Members: 16, Rounds: 3, TotalGain: 1.25}}
	if err := checkRecovered(before, same); err != nil {
		t.Fatalf("identical recovery rejected: %v", err)
	}
	ulp := map[int64]server.SessionStatus{1: {ID: 1, Members: 16, Rounds: 3, TotalGain: math.Nextafter(1.25, 2)}}
	if checkRecovered(before, ulp) == nil {
		t.Error("a recovered gain one ulp off was accepted")
	}
	if checkRecovered(before, map[int64]server.SessionStatus{}) == nil {
		t.Error("a lost session was accepted")
	}
}

func TestRequestCountsCrossCheck(t *testing.T) {
	expo := strings.Join([]string{
		"# HELP peerlearn_http_requests_total Requests served.",
		"# TYPE peerlearn_http_requests_total counter",
		`peerlearn_http_requests_total{code="200",method="POST",route="/v1/sessions/{id}/join"} 5`,
		`peerlearn_http_requests_total{code="201",method="POST",route="/v1/sessions"} 2`,
		`peerlearn_http_in_flight_requests 0`,
	}, "\n")
	srv, err := parseRequestCounts(expo)
	if err != nil {
		t.Fatal(err)
	}
	client := map[string]int{
		countKey("/v1/sessions/{id}/join", "POST", 200): 5,
		countKey("/v1/sessions", "POST", 201):           2,
	}
	if err := checkCounts(client, srv); err != nil {
		t.Fatalf("matching counts rejected: %v", err)
	}
	client[countKey("/v1/sessions", "POST", 201)] = 3
	if checkCounts(client, srv) == nil {
		t.Error("a count mismatch was accepted")
	}
	delete(client, countKey("/v1/sessions", "POST", 201))
	if checkCounts(client, srv) == nil {
		t.Error("a request the client never saw was accepted")
	}
	if _, err := parseRequestCounts(`peerlearn_http_requests_total{code="200"} x`); err == nil {
		t.Error("a malformed sample parsed")
	}
}

func TestCheckGains(t *testing.T) {
	runs := []offlineRun{{mode: core.Star, gain: 2}, {mode: core.Clique, gain: 1}, {mode: core.Star, gain: 2}}
	if p := checkGains(runs, nil); len(p) != 0 {
		t.Fatalf("repeatable runs rejected: %v", p)
	}
	runs = append(runs, offlineRun{mode: core.Clique, gain: math.Nextafter(1, 2)})
	if p := checkGains(runs, nil); len(p) != 1 {
		t.Fatalf("a run one ulp off: problems %v", p)
	}
	golden := map[core.Mode]uint64{core.Star: math.Float64bits(2), core.Clique: math.Float64bits(1.5)}
	if p := checkGains(runs[:3], golden); len(p) != 1 {
		t.Fatalf("golden mismatch: problems %v", p)
	}
}
