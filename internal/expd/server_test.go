package expd

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

// tinySpec is a 6-point tile sweep (N=3600, 2 backends x 3 tiles) that a
// test machine simulates in well under a second.
const tinySpec = `{"kind":"tile","scale":0.01,"nodes":2,"runs":1}`

func newTestServer(t *testing.T, dir string) *Server {
	t.Helper()
	s, err := NewServer(Options{Dir: dir, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// metric pulls one counter/gauge value out of the service metrics table.
func metric(t *testing.T, s *Server, name string) float64 {
	t.Helper()
	var buf bytes.Buffer
	s.MetricsTable().CSV(&buf)
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rows[1:] {
		if row[1] == name {
			v, err := strconv.ParseFloat(row[4], 64)
			if err != nil {
				t.Fatalf("metric %s: bad value %q", name, row[4])
			}
			return v
		}
	}
	t.Fatalf("metric %s not found", name)
	return 0
}

func waitState(t *testing.T, s *Server, id, want string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		st, err := s.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == want {
			return st
		}
		if terminal(st.State) {
			t.Fatalf("job %s settled as %s (err %q), want %s", id[:12], st.State, st.Error, want)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s waiting for %s", id[:12], st.State, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func fetch(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d: %s", url, resp.StatusCode, body)
	}
	return body
}

// TestServerCacheHit drives the acceptance path over HTTP: a sweep runs
// cold, an overlapping sweep is served entirely from the cache, and the
// original spec resubmitted under a different spelling dedups onto the same
// job with byte-identical CSV.
func TestServerCacheHit(t *testing.T) {
	srv := newTestServer(t, t.TempDir())
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	post := func(body string) map[string]any {
		resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var v map[string]any
		if err := jsonDecode(resp.Body, &v); err != nil {
			t.Fatal(err)
		}
		return v
	}

	first := post(tinySpec)
	id, _ := first["id"].(string)
	if id == "" || first["fresh"] != true {
		t.Fatalf("fresh submit came back %v", first)
	}
	waitState(t, srv, id, StateDone)
	csv1 := fetch(t, ts.URL+"/jobs/"+id+"/result")
	if executed := metric(t, srv, "points_executed"); executed != 6 {
		t.Fatalf("cold sweep executed %v points, want 6", executed)
	}

	// A subset sweep shares every point: zero new simulations.
	sub := post(`{"kind":"tile","scale":0.01,"nodes":2,"runs":1,"tiles":[1200,1800]}`)
	subID, _ := sub["id"].(string)
	if subID == id {
		t.Fatal("subset spec deduped onto the superset job")
	}
	st := waitState(t, srv, subID, StateDone)
	if st.Cached != 4 { // 2 backends x 2 tiles
		t.Errorf("subset sweep hit %d cached points, want 4", st.Cached)
	}
	if hits := metric(t, srv, "cache_hits"); hits != 4 {
		t.Errorf("cache_hits = %v, want 4", hits)
	}
	if executed := metric(t, srv, "points_executed"); executed != 6 {
		t.Errorf("subset sweep re-simulated: points_executed = %v, want still 6", executed)
	}

	// The original spec under a reordered spelling lands on the same job...
	again := post(`{"runs":1,"scale":0.01,"kind":"tile","nodes":2}`)
	if again["id"] != id || again["fresh"] != false {
		t.Fatalf("resubmit did not dedup: %v", again)
	}
	// ...and its CSV is byte-identical to the miss path's.
	csv2 := fetch(t, ts.URL+"/jobs/"+id+"/result")
	if !bytes.Equal(csv1, csv2) {
		t.Errorf("warm CSV differs from cold CSV:\n%s\nvs\n%s", csv1, csv2)
	}
	if !bytes.HasPrefix(csv1, []byte("backend,nodes,tile,mt,")) {
		t.Errorf("unexpected CSV header: %.80s", csv1)
	}
}

func TestServerCancelMidSweep(t *testing.T) {
	srv := newTestServer(t, t.TempDir())
	defer srv.Close()

	// Big enough that it cannot finish before the cancel lands.
	st, fresh, err := srv.Submit([]byte(`{"kind":"nodes","scale":0.05,"runs":5}`))
	if err != nil || !fresh {
		t.Fatalf("submit: %v fresh=%v", err, fresh)
	}
	ch, off, cur, err := srv.Subscribe(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer off()
	// Wait until the job is actually running, then cancel mid-sweep. The
	// dispatcher may have started it before Subscribe, in which case the
	// state event is already gone and the status says so.
	for cur.State != StateRunning {
		if ev, ok := <-ch; !ok || (ev.Type == "state" && ev.State == StateRunning) {
			break
		}
	}
	if _, err := srv.Cancel(st.ID); err != nil {
		t.Fatal(err)
	}
	fin := waitState(t, srv, st.ID, StateCancelled)
	if fin.Done >= fin.Points {
		t.Errorf("cancelled job completed all %d points", fin.Points)
	}
	if v := metric(t, srv, "jobs_cancelled"); v != 1 {
		t.Errorf("jobs_cancelled = %v, want 1", v)
	}
}

// TestServerRestartResume is the checkpoint acceptance test: a server killed
// mid-sweep resumes after restart and finishes without re-simulating the
// points the first incarnation completed, proven by the points_executed
// counters of both incarnations summing to exactly the sweep size.
func TestServerRestartResume(t *testing.T) {
	dir := t.TempDir()
	srv1 := newTestServer(t, dir)

	// 14 points: N=18000, 2 backends x the 7 paper tiles dividing 18000,
	// 3 runs each — slow enough that Close lands mid-sweep.
	spec := `{"kind":"tile","scale":0.05,"nodes":2,"runs":3}`
	st, _, err := srv1.Submit([]byte(spec))
	if err != nil {
		t.Fatal(err)
	}
	total := st.Points
	if total != 14 {
		t.Fatalf("spec expands to %d points, want 14", total)
	}
	ch, off, _, err := srv1.Subscribe(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	// Let the first point land, then take the server down mid-sweep.
	for ev := range ch {
		if ev.Type == "point" {
			break
		}
	}
	off()
	srv1.Close()
	executed1 := metric(t, srv1, "points_executed")
	if executed1 < 1 || executed1 >= float64(total) {
		t.Fatalf("first incarnation executed %v points, want a strict mid-sweep prefix", executed1)
	}

	// The restarted server replays the checkpoint and resumes on its own.
	srv2 := newTestServer(t, dir)
	defer srv2.Close()
	if got, err := srv2.Status(st.ID); err != nil || terminal(got.State) && got.State != StateDone {
		t.Fatalf("restarted server sees job as %v (err %v)", got.State, err)
	}
	fin := waitState(t, srv2, st.ID, StateDone)
	if fin.Done != total {
		t.Fatalf("resumed job finished %d/%d points", fin.Done, total)
	}

	executed2 := metric(t, srv2, "points_executed")
	if executed1+executed2 != float64(total) {
		t.Errorf("executed %v + %v points across restarts, want exactly %d (no recomputation)",
			executed1, executed2, total)
	}
	if hits := metric(t, srv2, "cache_hits"); hits != executed1 {
		t.Errorf("resume hit %v cached points, want %v (the first incarnation's work)", hits, executed1)
	}

	// The result is assembled from the shared cache as if never interrupted.
	if _, _, results, err := srv2.Result(st.ID); err != nil || len(results) != total {
		t.Errorf("Result after resume: %d results, err %v", len(results), err)
	}
}

// TestServerResumesOldCheckpoint: each testdata checkpoint is what an
// earlier server wrote for tinySpec plus a spec field that no longer exists:
// a shard count in jobs-sharded-spec.json, the clock-sync flag in
// jobs-sync-clocks-spec.json. Each still loads — loadCheckpoint does not
// reject unknown fields, unlike DecodeSpec — and its queued job resumes
// under its recorded ID as tinySpec's sweep, on tinySpec's points' cache
// addresses.
func TestServerResumesOldCheckpoint(t *testing.T) {
	plain, err := DecodeSpec([]byte(tinySpec))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ file, id string }{
		{"jobs-sharded-spec.json", "5a7a9eeb2ba7f0779dfded5f5e43e593ebd6b4a313f2ca05a4e90b8ad1cad530"},
		{"jobs-sync-clocks-spec.json", "17f7cb6dfb49ce0551e29ef727d90bfca5a251c59e721d41277ea2516c6737e8"},
	} {
		t.Run(tc.file, func(t *testing.T) {
			dir := t.TempDir()
			ckpt, err := os.ReadFile(filepath.Join("testdata", tc.file))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, "jobs.json"), ckpt, 0o644); err != nil {
				t.Fatal(err)
			}
			srv := newTestServer(t, dir)
			defer srv.Close()
			fin := waitState(t, srv, tc.id, StateDone)
			if fin.Points != len(plain.Points()) {
				t.Fatalf("resumed job has %d points, tinySpec's sweep %d", fin.Points, len(plain.Points()))
			}
			for _, p := range plain.Points() {
				if !srv.Cache().Has(p.Hash()) {
					t.Errorf("point %s was not computed by the resumed job", p.Hash()[:12])
				}
			}
		})
	}
}

// TestServerFailsUnresumableCheckpoint: a checkpointed spec that no longer
// canonicalizes resumes as a failed job naming the reason, under its
// recorded ID, instead of reporting done with no points computed.
// testdata/jobs-coll-spec.json is what an earlier server wrote for a
// finished sweep of the since-removed coll kind.
func TestServerFailsUnresumableCheckpoint(t *testing.T) {
	coll, err := os.ReadFile(filepath.Join("testdata", "jobs-coll-spec.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, id, kind string
		ckpt           []byte
	}{
		{"coll", "2369618a66c0a130ada633310ffe6b1967433c4ccab1f9c45a76dcd962a36df2", "coll", coll},
		{"unknown kind", "77617270", "warp",
			[]byte(`{"jobs":[{"id":"77617270","spec":{"kind":"warp"},"state":"queued"}]}`)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, "jobs.json"), tc.ckpt, 0o644); err != nil {
				t.Fatal(err)
			}
			srv := newTestServer(t, dir)
			defer srv.Close()
			st, err := srv.Status(tc.id)
			if err != nil {
				t.Fatal(err)
			}
			if st.State != StateFailed || st.Points != 0 {
				t.Fatalf("resumed as %s with %d points, want failed with none", st.State, st.Points)
			}
			if !strings.Contains(st.Error, "kind") || !strings.Contains(st.Error, `"`+tc.kind+`"`) {
				t.Errorf("error %q does not name kind %q", st.Error, tc.kind)
			}
		})
	}
}

// jsonDecode is a tiny helper so the test reads naturally.
func jsonDecode(r io.Reader, v any) error {
	data, err := io.ReadAll(r)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("decoding %s: %w", data, err)
	}
	return nil
}
