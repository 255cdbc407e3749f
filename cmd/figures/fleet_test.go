package main

// Distributed-campaign tests (`make fleet-smoke`): re-execute this test
// binary as real cobrad worker processes (TestMain's
// FIGURES_FLEET_WORKER branch), scatter a campaign across them with
// -fleet, and compare the gathered artifact byte for byte against a
// serial local run — with a throttled worker, with a worker SIGKILLed
// mid-campaign, and with the coordinator itself killed and resumed.

import (
	"bytes"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"cobra/internal/exp"
	"cobra/internal/fault"
	"cobra/internal/fsx"
	"cobra/internal/obsv"
	"cobra/internal/srv"
)

// fleetWorkerMain is the worker process: a srv.Server on an ephemeral
// loopback port that publishes its bound address atomically to
// $FIGURES_FLEET_ADDRFILE, as `cobrad -addr 127.0.0.1:0 -addrfile`
// does. $FIGURES_FLEET_MAXINFLIGHT caps admitted jobs (overflow answers
// 429), and COBRA_FAULTS arms crashes. It serves until killed.
func fleetWorkerMain() int {
	if _, err := fault.ActivateFromEnv(); err != nil {
		fmt.Fprintln(os.Stderr, "fleet worker:", err)
		return 2
	}
	maxInflight, _ := strconv.Atoi(os.Getenv("FIGURES_FLEET_MAXINFLIGHT"))
	server, err := srv.New(srv.Config{Workers: 1, QueueDepth: 16, MaxInflight: maxInflight})
	if err != nil {
		fmt.Fprintln(os.Stderr, "fleet worker:", err)
		return 1
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintln(os.Stderr, "fleet worker:", err)
		return 1
	}
	if err := fsx.WriteFileAtomicBytes(os.Getenv("FIGURES_FLEET_ADDRFILE"), []byte(ln.Addr().String()+"\n")); err != nil {
		fmt.Fprintln(os.Stderr, "fleet worker:", err)
		return 1
	}
	server.Start()
	fmt.Fprintln(os.Stderr, "fleet worker:", http.Serve(ln, server.Handler()))
	return 1
}

// startFleetWorker re-executes the test binary as a worker process and
// returns it with its address once published. Extra environment
// entries (a throttle, a fault schedule) ride along; the worker is
// killed at cleanup if it is still running.
func startFleetWorker(t *testing.T, env ...string) (*exec.Cmd, string) {
	t.Helper()
	addrFile := filepath.Join(t.TempDir(), "addr")
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "FIGURES_FLEET_WORKER=1", "FIGURES_FLEET_ADDRFILE="+addrFile)
	cmd.Env = append(cmd.Env, env...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
		if t.Failed() {
			t.Logf("fleet worker stderr:\n%s", stderr.String())
		}
	})
	deadline := time.Now().Add(20 * time.Second)
	for {
		if b, err := os.ReadFile(addrFile); err == nil && len(b) > 0 {
			return cmd, strings.TrimSpace(string(b))
		}
		if time.Now().After(deadline) {
			t.Fatalf("fleet worker never published its address; stderr:\n%s", stderr.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// fleetCampaign is the campaign every fleet test scatters.
var fleetCampaign = []string{"-fig", "10", "-scale", "12"}

// localArtifact runs the campaign serially without a fleet and returns
// the artifact bytes every fleet run must reproduce.
func localArtifact(t *testing.T) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "local.txt")
	args := append(append([]string{}, fleetCampaign...), "-parallel", "1", "-manifest", "none", "-o", path)
	if code, _, stderr := runFigures(t, args...); code != 0 {
		t.Fatalf("local run: exit %d\n%s", code, stderr)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// runFleet scatters the campaign across addrs and returns the artifact
// bytes and the run manifest's fleet block.
func runFleet(t *testing.T, addrs []string, extra ...string) ([]byte, *obsv.FleetInfo) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "fleet.txt")
	args := append(append([]string{}, fleetCampaign...), "-parallel", "4", "-fleet", strings.Join(addrs, ","), "-o", path)
	code, _, stderr := runFigures(t, append(args, extra...)...)
	if code != 0 {
		t.Fatalf("fleet run: exit %d\n%s", code, stderr)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	m, err := obsv.ReadManifest(path + ".manifest.json")
	if err != nil {
		t.Fatal(err)
	}
	if m.Fleet == nil {
		t.Fatal("fleet run's manifest has no fleet block")
	}
	return b, m.Fleet
}

// requireSameArtifact fails unless the fleet artifact equals the local
// one byte for byte.
func requireSameArtifact(t *testing.T, want, got []byte) {
	t.Helper()
	if len(want) == 0 {
		t.Fatal("local artifact is empty")
	}
	if !bytes.Equal(want, got) {
		t.Fatalf("fleet artifact differs from the serial local run:\n--- local ---\n%s\n--- fleet ---\n%s", want, got)
	}
}

// TestFleetThrottledWorkerRedistributes: one worker admits a single job
// at a time and answers the rest with 429 + Retry-After; the campaign
// still completes on the fleet with the local bytes, and both workers
// computed cells.
func TestFleetThrottledWorkerRedistributes(t *testing.T) {
	if testing.Short() {
		t.Skip("process fleet test")
	}
	want := localArtifact(t)
	_, throttled := startFleetWorker(t, "FIGURES_FLEET_MAXINFLIGHT=1")
	_, open := startFleetWorker(t)
	got, fi := runFleet(t, []string{throttled, open})
	requireSameArtifact(t, want, got)
	for _, w := range fi.Workers {
		if w.Completed == 0 {
			t.Errorf("worker %s completed no cells: %+v", w.Addr, fi)
		}
	}
}

// TestFleetWorkerKilledMidCampaignStealsByteIdentical: one worker is
// SIGKILLed at its third job admission, with cells in flight on it. The
// coordinator marks it down, steals its cells to the survivor, and the
// gathered artifact still equals the serial local run byte for byte.
func TestFleetWorkerKilledMidCampaignStealsByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("process fleet test")
	}
	want := localArtifact(t)
	doomed, doomedAddr := startFleetWorker(t, "COBRA_FAULTS="+fault.PointSrvAdmit+":at=3:kill")
	_, survivor := startFleetWorker(t)
	got, fi := runFleet(t, []string{doomedAddr, survivor})
	requireSameArtifact(t, want, got)

	err := doomed.Wait()
	ws, ok := doomed.ProcessState.Sys().(syscall.WaitStatus)
	if !ok || !ws.Signaled() || ws.Signal() != syscall.SIGKILL {
		t.Fatalf("doomed worker exited with %v, want death by SIGKILL", err)
	}
	if fi.Stolen == 0 {
		t.Fatalf("no cell was stolen from the killed worker: %+v", fi)
	}
	for _, w := range fi.Workers {
		if strings.Contains(w.Addr, survivor) && w.Completed == 0 {
			t.Fatalf("survivor completed no cells: %+v", fi)
		}
	}
}

// TestFleetCoordinatorKilledResumesByteIdentical: the coordinator
// itself is SIGKILLed at its third checkpoint append; a -resume run on
// the same fleet replays the two durable cells and converges to the
// serial local bytes.
func TestFleetCoordinatorKilledResumesByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("process fleet test")
	}
	want := localArtifact(t)
	_, a := startFleetWorker(t)
	_, b := startFleetWorker(t)
	fleet := a + "," + b
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "fleet.ckpt")
	out := filepath.Join(dir, "out.txt")

	crashCampaign(t,
		strings.Join(fleetCampaign, " ")+" -parallel 1 -manifest none -fleet "+fleet+" -checkpoint "+ckpt+" -o "+out,
		fault.PointJournalAppend+":at=3:kill")
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Fatalf("killed coordinator published an artifact: %v", err)
	}
	j, err := exp.OpenJournal(ckpt, true)
	if err != nil {
		t.Fatalf("fleet journal unreadable after SIGKILL: %v", err)
	}
	durable := j.Len()
	j.Close()
	if durable != 2 {
		t.Fatalf("journal holds %d cells after kill-at-append-3, want 2", durable)
	}

	got, fi := runFleet(t, []string{a, b}, "-checkpoint", ckpt, "-resume")
	requireSameArtifact(t, want, got)
	if fi.Dispatched == 0 {
		t.Fatalf("resumed run dispatched nothing to the fleet: %+v", fi)
	}
}
