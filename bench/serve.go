package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net"
	"net/http"
	"os"
	"strconv"
	"sync"
	"time"

	"peerlearn/internal/core"
	"peerlearn/internal/server"
)

// conns is the number of client connections: the load comes from this
// one process, and the machine the benchmark was sized on has two CPUs.
const conns = 2

// groupSize is the cohort group size of every serving workload.
const groupSize = 4

// servingSpec is one serving workload: a fixed cohort population and an
// op mix sent open loop at heavyRate, about a fifth of the closed-loop
// capacity measured with two connections.
type servingSpec struct {
	name      string
	sessions  int
	members   int
	wal       bool // every session journals to a write-ahead log
	direct    bool // populate through Session.Join instead of HTTP
	mix       [numOpKinds]int
	heavyRate float64
}

var churnMix = [numOpKinds]int{opJoin: 3, opLeave: 3, opRound: 3, opStatus: 1}

var servingSpecs = []servingSpec{
	{name: "churn-mem", sessions: 256, members: 16, mix: churnMix, heavyRate: 6000},
	{name: "churn-wal", sessions: 256, members: 16, wal: true, mix: churnMix, heavyRate: 6000},
	{name: "rounds-large", sessions: 8, members: 10000, direct: true,
		mix: [numOpKinds]int{opJoin: 2, opLeave: 2, opRound: 6}, heavyRate: 150},
}

// book is the client's record of one session: the members it knows
// joined and have not been sent a leave, and every round it saw succeed.
type book struct {
	mu      sync.Mutex
	id      int64
	path    string
	members []int64
	rounds  int
	gains   []float64
}

// instance is one ready-to-serve deployment: a session store behind the
// production handler on a loopback listener, populated, plus the
// client's connections and books.
type instance struct {
	spec    servingSpec
	cfg     runConfig
	tr      *tracer
	clients []*http.Client
	dir     string

	store  *server.SessionStore
	srv    *http.Server
	served chan error
	base   string
	books  []*book

	recoverDur time.Duration

	mu sync.Mutex
	// issued counts replies by the label set the server's
	// peerlearn_http_requests_total uses, for the exact cross-check.
	issued   map[string]int
	problems []string
}

// newInstance builds and populates a deployment; its duration is the
// workload's set-up time. A journaled deployment is populated, crashed
// and recovered into a fresh store and server, so it serves from a
// recovered state, as a restarted daemon would.
func newInstance(spec servingSpec, cfg runConfig, tr *tracer) (*instance, error) {
	in := &instance{spec: spec, cfg: cfg, tr: tr, books: make([]*book, spec.sessions)}
	for c := 0; c < conns; c++ {
		in.clients = append(in.clients, &http.Client{
			Timeout:   2 * time.Second,
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
		})
	}
	if spec.wal {
		dir, err := os.MkdirTemp(cfg.tmp, "peerlearn-wal-")
		if err != nil {
			return nil, err
		}
		in.dir = dir
	}
	if err := in.populate(); err != nil {
		in.close()
		return nil, err
	}
	if spec.wal {
		if err := in.crashAndRecover(); err != nil {
			in.close()
			return nil, err
		}
	}
	return in, nil
}

// boot starts a fresh store and server, over the journal directory when
// the workload has one, recovering what the journal holds if asked.
func (in *instance) boot(recovering bool) error {
	store := server.NewSessionStore()
	if in.dir != "" {
		j, err := server.OpenJournal(in.dir)
		if err != nil {
			return err
		}
		store.AttachJournal(j)
	}
	if in.tr != nil {
		store.SetPolicyFactory(in.tr.factory)
	}
	// The daemon's logger, with its output discarded: request logs are
	// formatted as in production but never reach a terminal.
	handler := server.New(store, server.Options{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	if recovering {
		t0 := time.Now()
		if _, err := store.Recover(); err != nil {
			return fmt.Errorf("recover: %w", err)
		}
		in.recoverDur = time.Since(t0)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	in.store = store
	in.srv = &http.Server{Handler: handler, ReadHeaderTimeout: 5 * time.Second}
	in.served = make(chan error, 1)
	go func(srv *http.Server) { in.served <- srv.Serve(ln) }(in.srv)
	in.base = "http://" + ln.Addr().String()
	in.mu.Lock()
	in.issued = make(map[string]int)
	in.mu.Unlock()
	return nil
}

// stopServer shuts the server down and waits for it to return.
func (in *instance) stopServer() {
	if in.srv == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := in.srv.Shutdown(ctx); err != nil {
		_ = in.srv.Close()
	}
	<-in.served
	in.srv = nil
	for _, c := range in.clients {
		c.CloseIdleConnections()
	}
}

func (in *instance) close() {
	in.stopServer()
	if in.dir != "" {
		_ = os.RemoveAll(in.dir)
	}
}

func (in *instance) crashAndRecover() error {
	in.store.Crash()
	in.stopServer()
	return in.boot(true)
}

// populate creates every session over HTTP and fills its roster with
// the workload's seeded skills.
func (in *instance) populate() error {
	if err := in.boot(false); err != nil {
		return err
	}
	for slot := range in.books {
		mode := "star"
		if slot%2 == 1 {
			mode = "clique"
		}
		// The slot travels in the seed, so a traced policy knows its session.
		body := fmt.Sprintf(`{"group_size":%d,"mode":%q,"seed":%d}`, groupSize, mode, slot)
		code, resp, err := in.call(0, http.MethodPost, "/v1/sessions", []byte(body))
		if err != nil || code != http.StatusCreated {
			return fmt.Errorf("creating session %d: status %d: %v", slot, code, err)
		}
		var st server.SessionStatus
		if err := json.Unmarshal(resp, &st); err != nil {
			return fmt.Errorf("creating session %d: %w", slot, err)
		}
		in.books[slot] = &book{id: st.ID, path: "/v1/sessions/" + strconv.FormatInt(st.ID, 10)}
	}
	errs := make([]error, conns)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for slot := c; slot < len(in.books) && errs[c] == nil; slot += conns {
				errs[c] = in.fill(c, slot)
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func (in *instance) fill(conn, slot int) error {
	b := in.books[slot]
	skills := population(in.cfg.seed^uint64(slot+1)*0x9e3779b97f4a7c15, in.spec.members)
	b.members = make([]int64, 0, len(skills))
	if in.spec.direct {
		sess, ok := in.store.Session(b.id)
		if !ok {
			return fmt.Errorf("session %d vanished", b.id)
		}
		for _, s := range skills {
			pid, err := sess.Join(s)
			if err != nil {
				return err
			}
			b.members = append(b.members, int64(pid))
		}
		return nil
	}
	for _, s := range skills {
		pid, ok := in.join(conn, b, s)
		if !ok {
			return fmt.Errorf("populating session %d failed", b.id)
		}
		b.members = append(b.members, pid)
	}
	return nil
}

// call sends one request, reads the whole reply, and books it under the
// labels the server counts it by.
func (in *instance) call(conn int, method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, in.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	resp, err := in.clients[conn].Do(req)
	if err != nil {
		return 0, nil, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	key := countKey(server.RouteLabel(path), method, resp.StatusCode)
	in.mu.Lock()
	in.issued[key]++
	in.mu.Unlock()
	return resp.StatusCode, b, err
}

func countKey(route, method string, code int) string {
	return fmt.Sprintf(`{code="%d",method="%s",route="%s"}`, code, method, route)
}

func (in *instance) problem(format string, args ...any) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.problems = append(in.problems, fmt.Sprintf(format, args...))
}

func (in *instance) join(conn int, b *book, skill float64) (int64, bool) {
	body := []byte(`{"skill":` + strconv.FormatFloat(skill, 'g', -1, 64) + `}`)
	code, resp, err := in.call(conn, http.MethodPost, b.path+"/join", body)
	if err != nil || code != http.StatusOK {
		return 0, false
	}
	var jr server.JoinResponse
	if err := json.Unmarshal(resp, &jr); err != nil {
		in.problem("join reply %q: %v", resp, err)
		return 0, false
	}
	return jr.ParticipantID, true
}

// do runs one planned op; it is the runner's doFunc.
func (in *instance) do(conn int, o op, s *sample) bool {
	b := in.books[o.slot]
	switch o.kind {
	case opJoin:
		pid, ok := in.join(conn, b, o.skill)
		if ok {
			b.mu.Lock()
			b.members = append(b.members, pid)
			b.mu.Unlock()
		}
		return ok
	case opLeave:
		b.mu.Lock()
		if len(b.members) == 0 {
			b.mu.Unlock()
			in.problem("leave planned on empty session %d", b.id)
			return false
		}
		i := int(o.pick % uint64(len(b.members)))
		pid := b.members[i]
		b.members[i] = b.members[len(b.members)-1]
		b.members = b.members[:len(b.members)-1]
		b.mu.Unlock()
		body := []byte(`{"participant_id":` + strconv.FormatInt(pid, 10) + `}`)
		code, _, err := in.call(conn, http.MethodPost, b.path+"/leave", body)
		return err == nil && code == http.StatusOK
	case opRound:
		if in.tr != nil {
			in.tr.begin(o.slot)
		}
		code, resp, err := in.call(conn, http.MethodPost, b.path+"/round", nil)
		if in.tr != nil {
			in.tr.end(o.slot, s)
		}
		if err != nil || code != http.StatusOK {
			return false
		}
		var rr server.RoundResponse
		if err := json.Unmarshal(resp, &rr); err != nil {
			in.problem("round reply %q: %v", resp, err)
			return false
		}
		if err := checkRound(rr, groupSize); err != nil {
			in.problem("session %d: %v", b.id, err)
			return false
		}
		b.mu.Lock()
		b.rounds++
		b.gains = append(b.gains, rr.Gain)
		b.mu.Unlock()
		return true
	case opStatus:
		code, resp, err := in.call(conn, http.MethodGet, b.path, nil)
		if err != nil || code != http.StatusOK {
			return false
		}
		var st server.SessionStatus
		if err := json.Unmarshal(resp, &st); err != nil || st.ID != b.id {
			in.problem("status reply %q for session %d: %v", resp, b.id, err)
			return false
		}
		return true
	default:
		return false
	}
}

// checkRound validates one round reply: every seated member is in a
// full group, and learning never loses skill.
func checkRound(rr server.RoundResponse, size int) error {
	if rr.Groups < 1 || rr.Participated != size*rr.Groups {
		return fmt.Errorf("round %d seated %d in %d groups of %d", rr.Round, rr.Participated, rr.Groups, size)
	}
	if !(rr.Gain >= 0) {
		return fmt.Errorf("round %d gain %v is negative", rr.Round, rr.Gain)
	}
	return nil
}

// checkSession compares a session's status page with the client's book.
func checkSession(st server.SessionStatus, b *book) error {
	if st.Members != len(b.members) {
		return fmt.Errorf("session %d has %d members, the client counts %d", b.id, st.Members, len(b.members))
	}
	if st.Rounds != b.rounds {
		return fmt.Errorf("session %d ran %d rounds, the client saw %d succeed", b.id, st.Rounds, b.rounds)
	}
	sum := 0.0
	for _, g := range b.gains {
		sum += g
	}
	if !core.ApproxEqual(st.TotalGain, sum) {
		return fmt.Errorf("session %d total gain %v, the client's rounds sum to %v", b.id, st.TotalGain, sum)
	}
	return nil
}

// checkCounts compares the client's reply counts with the server's
// request counter, label set by label set.
func checkCounts(client, srv map[string]int) error {
	for k, n := range client {
		if srv[k] != n {
			return fmt.Errorf("requests %s: client got %d replies, server counted %d", k, n, srv[k])
		}
	}
	for k, n := range srv {
		if _, ok := client[k]; !ok {
			return fmt.Errorf("requests %s: server counted %d the client never got", k, n)
		}
	}
	return nil
}

// checkRecovered compares each session's status before a crash and
// after recovery, bit for bit.
func checkRecovered(before, after map[int64]server.SessionStatus) error {
	if len(before) != len(after) {
		return fmt.Errorf("recovered %d sessions, %d were live", len(after), len(before))
	}
	for id, b := range before {
		a, ok := after[id]
		if !ok {
			return fmt.Errorf("session %d not recovered", id)
		}
		if a.Members != b.Members || a.Rounds != b.Rounds || math.Float64bits(a.TotalGain) != math.Float64bits(b.TotalGain) {
			return fmt.Errorf("session %d recovered as %+v, was %+v", id, a, b)
		}
	}
	return nil
}

// parseRequestCounts reads peerlearn_http_requests_total from a
// Prometheus text exposition, keyed by label set.
func parseRequestCounts(expo string) (map[string]int, error) {
	const family = "peerlearn_http_requests_total{"
	out := make(map[string]int)
	for _, line := range bytes.Split([]byte(expo), []byte("\n")) {
		rest, ok := bytes.CutPrefix(line, []byte(family))
		if !ok {
			continue
		}
		sp := bytes.LastIndexByte(rest, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("malformed sample %q", line)
		}
		n, err := strconv.Atoi(string(rest[sp+1:]))
		if err != nil {
			return nil, fmt.Errorf("malformed sample %q: %w", line, err)
		}
		out["{"+string(rest[:sp])] = n
	}
	return out, nil
}

func (in *instance) statuses() map[int64]server.SessionStatus {
	out := make(map[int64]server.SessionStatus, len(in.books))
	for _, b := range in.books {
		if sess, ok := in.store.Session(b.id); ok {
			st := sess.Status()
			out[b.id] = server.SessionStatus{ID: b.id, Members: st.Members, Rounds: st.Rounds, TotalGain: st.TotalGain}
		}
	}
	return out
}

// verify runs the end-of-run correctness checks. It returns every
// problem found, including those recorded with a failed op during the
// run, and how many the end-of-run checks added.
func (in *instance) verify() (problems []string, added int) {
	in.mu.Lock()
	during := len(in.problems)
	in.mu.Unlock()
	for _, b := range in.books {
		code, resp, err := in.call(0, http.MethodGet, b.path, nil)
		var st server.SessionStatus
		if err == nil && code == http.StatusOK {
			err = json.Unmarshal(resp, &st)
		} else if err == nil {
			err = fmt.Errorf("status %d", code)
		}
		if err == nil {
			err = checkSession(st, b)
		}
		if err != nil {
			in.problem("session %d: %v", b.id, err)
		}
	}
	code, expo, err := in.call(0, http.MethodGet, "/metrics", nil)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("scrape status %d", code)
	}
	var srv map[string]int
	if err == nil {
		srv, err = parseRequestCounts(string(expo))
	}
	if err == nil {
		in.mu.Lock()
		client := make(map[string]int, len(in.issued))
		for k, n := range in.issued {
			if k != countKey("/metrics", http.MethodGet, http.StatusOK) {
				client[k] = n
			}
		}
		in.mu.Unlock()
		err = checkCounts(client, srv)
	}
	if err != nil {
		in.problem("metrics cross-check: %v", err)
	}
	if in.spec.wal {
		before := in.statuses()
		if err := in.crashAndRecover(); err != nil {
			in.problem("final recovery: %v", err)
		} else if err := checkRecovered(before, in.statuses()); err != nil {
			in.problem("final recovery: %v", err)
		}
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return append([]string(nil), in.problems...), len(in.problems) - during
}
