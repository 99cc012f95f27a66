// Command prun mimics the PRRTE launcher used in the paper's evaluation:
// it launches one of the built-in demo applications, either as goroutine
// ranks on a simulated cluster (the default) or — with -transport udp — as
// real OS processes exchanging MPI traffic over loopback UDP sockets.
//
// Usage:
//
//	prun -np 8 -ppn 4 -app hello
//	prun -np 16 -ppn 8 -profile trinity -app ring
//	prun -np 8 -ppn 4 -pset app://left:0-3 -pset app://right:4-7 -app psets
//	prun -np 4 -transport udp -app ring
//
// In process mode the parent runs the boot rendezvous service and forks one
// child per rank (re-executing itself; children are told their identity via
// GOMPI_RANK/GOMPI_NP/GOMPI_BOOT/GOMPI_NONCE), reaps them, and propagates
// the first failing child's exit status.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"time"

	"gompi/internal/core"
	"gompi/internal/prrte"
	"gompi/internal/topo"
	"gompi/mpi"
	"gompi/runtime"
)

type psetFlags map[string][]int

func (p psetFlags) String() string { return fmt.Sprintf("%v", map[string][]int(p)) }

// Set parses "name:lo-hi" or "name:a,b,c". The separator is the LAST colon
// so URL-style pset names like app://left work.
func (p psetFlags) Set(v string) error {
	i := strings.LastIndex(v, ":")
	if i < 0 {
		return fmt.Errorf("pset must be name:ranks, got %q", v)
	}
	name, spec := v[:i], v[i+1:]
	var ranks []int
	for _, part := range strings.Split(spec, ",") {
		if lo, hi, ok := strings.Cut(part, "-"); ok {
			l, err1 := strconv.Atoi(lo)
			h, err2 := strconv.Atoi(hi)
			if err1 != nil || err2 != nil || h < l {
				return fmt.Errorf("bad range %q", part)
			}
			for r := l; r <= h; r++ {
				ranks = append(ranks, r)
			}
		} else {
			r, err := strconv.Atoi(part)
			if err != nil {
				return fmt.Errorf("bad rank %q", part)
			}
			ranks = append(ranks, r)
		}
	}
	p[name] = ranks
	return nil
}

// appFunc maps an -app name to its rank entry point.
func appFunc(name string) (func(p *mpi.Process) error, bool) {
	switch name {
	case "hello":
		return helloApp, true
	case "ring":
		return ringApp, true
	case "psets":
		return psetsApp, true
	}
	return nil, false
}

func main() {
	np := flag.Int("np", 4, "number of ranks")
	ppn := flag.Int("ppn", 4, "ranks per node")
	profileName := flag.String("profile", "jupiter", "cluster profile: jupiter, trinity, loopback")
	app := flag.String("app", "hello", "application: hello, ring, psets")
	cidMode := flag.String("cid", "excid", "CID mode: excid or consensus")
	transport := flag.String("transport", "sim", "transport: sim (goroutine ranks) or udp (one OS process per rank)")
	timeout := flag.Duration("timeout", 2*time.Minute, "process-mode watchdog: kill the job after this long")
	psets := psetFlags{}
	flag.Var(psets, "pset", "extra process set, name:lo-hi or name:a,b,c (repeatable)")
	flag.Parse()

	mode := core.CIDExtended
	if *cidMode == "consensus" {
		mode = core.CIDConsensus
	}
	appMain, ok := appFunc(*app)
	if !ok {
		fmt.Fprintf(os.Stderr, "prun: unknown app %q\n", *app)
		os.Exit(2)
	}

	// Forked child of a process-mode launch: the environment, not the flags,
	// is authoritative for identity.
	if os.Getenv("GOMPI_RANK") != "" {
		if err := runChild(mode, appMain); err != nil {
			fmt.Fprintln(os.Stderr, "prun:", err)
			var re runtime.RankError
			if errors.As(err, &re) && re.Stack != nil {
				os.Stderr.Write(re.Stack)
			}
			os.Exit(1)
		}
		return
	}

	if *transport == "udp" {
		if err := runParent(*np, *timeout, psets); err != nil {
			fmt.Fprintln(os.Stderr, "prun:", err)
			os.Exit(1)
		}
		return
	}
	if *transport != "sim" {
		fmt.Fprintf(os.Stderr, "prun: unknown transport %q\n", *transport)
		os.Exit(2)
	}

	var profile topo.Profile
	switch *profileName {
	case "trinity":
		profile = topo.Trinity()
	case "jupiter":
		profile = topo.Jupiter()
	default:
		profile = topo.Loopback(*ppn)
	}
	nodes := (*np + *ppn - 1) / *ppn
	opts := runtime.Options{
		Cluster: topo.New(profile, nodes),
		NP:      *np,
		PPN:     *ppn,
		Psets:   psets,
		Config:  core.Config{CIDMode: mode},
	}
	if err := runtime.Run(opts, appMain); err != nil {
		fmt.Fprintln(os.Stderr, "prun:", err)
		os.Exit(1)
	}
}

// envInt reads a required integer from the process-mode environment.
func envInt(key string) (int, error) {
	v, err := strconv.Atoi(os.Getenv(key))
	if err != nil {
		return 0, fmt.Errorf("bad %s=%q: %v", key, os.Getenv(key), err)
	}
	return v, nil
}

// runChild runs one rank of a process-mode job, identified by the GOMPI_*
// environment the parent stamped on it.
func runChild(mode core.CIDMode, appMain func(p *mpi.Process) error) error {
	rank, err := envInt("GOMPI_RANK")
	if err != nil {
		return err
	}
	np, err := envInt("GOMPI_NP")
	if err != nil {
		return err
	}
	nonce, err := strconv.ParseUint(os.Getenv("GOMPI_NONCE"), 10, 64)
	if err != nil {
		return fmt.Errorf("bad GOMPI_NONCE=%q: %v", os.Getenv("GOMPI_NONCE"), err)
	}
	boot := os.Getenv("GOMPI_BOOT")
	if boot == "" {
		return fmt.Errorf("GOMPI_BOOT not set")
	}
	return runtime.RunProcess(runtime.ProcOptions{
		NP:       np,
		Rank:     rank,
		BootAddr: boot,
		Config:   core.Config{CIDMode: mode, BTL: "udp", UDPNonce: nonce},
	}, appMain)
}

// runParent launches np copies of this binary as rank processes, serves the
// boot rendezvous for them, and reaps them under a watchdog. The children
// re-parse the same command line, so app/cid flags flow through unchanged.
func runParent(np int, timeout time.Duration, psets psetFlags) error {
	if np <= 0 {
		return fmt.Errorf("np must be positive")
	}
	boot, err := prrte.NewBootServer("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer boot.Close()
	for name, ranks := range psets {
		boot.RegisterPset(name, ranks)
	}
	nonce := runtime.NewJobNonce()

	self, err := os.Executable()
	if err != nil {
		return fmt.Errorf("locating own binary: %v", err)
	}
	procs := make([]*exec.Cmd, np)
	for r := 0; r < np; r++ {
		cmd := exec.Command(self, os.Args[1:]...)
		cmd.Stdout = os.Stdout
		cmd.Stderr = os.Stderr
		cmd.Env = append(os.Environ(),
			fmt.Sprintf("GOMPI_RANK=%d", r),
			fmt.Sprintf("GOMPI_NP=%d", np),
			fmt.Sprintf("GOMPI_BOOT=%s", boot.Addr()),
			fmt.Sprintf("GOMPI_NONCE=%d", nonce),
		)
		if err := cmd.Start(); err != nil {
			for _, p := range procs[:r] {
				_ = p.Process.Kill()
			}
			return fmt.Errorf("starting rank %d: %v", r, err)
		}
		procs[r] = cmd
	}

	type exit struct {
		rank int
		err  error
	}
	exits := make(chan exit, np)
	for r, cmd := range procs {
		go func(rank int, cmd *exec.Cmd) {
			exits <- exit{rank, cmd.Wait()}
		}(r, cmd)
	}

	watchdog := time.NewTimer(timeout)
	defer watchdog.Stop()
	var failed []int
	for done := 0; done < np; done++ {
		select {
		case e := <-exits:
			if e.err != nil {
				fmt.Fprintf(os.Stderr, "prun: rank %d: %v\n", e.rank, e.err)
				failed = append(failed, e.rank)
			}
		case <-watchdog.C:
			for _, p := range procs {
				_ = p.Process.Kill()
			}
			// Reap the kills so no zombie outlives us.
			for ; done < np; done++ {
				<-exits
			}
			return fmt.Errorf("job exceeded %v; killed %d ranks", timeout, np)
		}
	}
	if len(failed) > 0 {
		sort.Ints(failed)
		return fmt.Errorf("%d of %d ranks failed: %v", len(failed), np, failed)
	}
	return nil
}

// helloApp: the Sessions flow of Fig. 1 plus a hello line per rank.
func helloApp(p *mpi.Process) error {
	sess, err := p.SessionInit(nil, nil)
	if err != nil {
		return err
	}
	defer sess.Finalize()
	grp, err := sess.GroupFromPset(mpi.PsetWorld)
	if err != nil {
		return err
	}
	comm, err := sess.CommCreateFromGroup(grp, "prun.hello", nil, nil)
	if err != nil {
		return err
	}
	defer comm.Free()
	fmt.Printf("hello from rank %d of %d (session %s)\n", comm.Rank(), comm.Size(), sess.Name())
	return comm.Barrier()
}

// ringApp: pass a token around a ring and have rank 0 report it.
func ringApp(p *mpi.Process) error {
	sess, err := p.SessionInit(nil, nil)
	if err != nil {
		return err
	}
	defer sess.Finalize()
	grp, err := sess.GroupFromPset(mpi.PsetWorld)
	if err != nil {
		return err
	}
	comm, err := sess.CommCreateFromGroup(grp, "prun.ring", nil, nil)
	if err != nil {
		return err
	}
	defer comm.Free()
	me, n := comm.Rank(), comm.Size()
	token := make([]byte, 8)
	if me == 0 {
		copy(token, "token!!!")
		if err := comm.Send(token, (me+1)%n, 0); err != nil {
			return err
		}
		if _, err := comm.Recv(token, (me-1+n)%n, 0); err != nil {
			return err
		}
		fmt.Printf("ring of %d complete: %q\n", n, token)
		return nil
	}
	if _, err := comm.Recv(token, (me-1+n)%n, 0); err != nil {
		return err
	}
	return comm.Send(token, (me+1)%n, 0)
}

// psetsApp: enumerate the process sets the runtime advertises, each with
// its members in group-rank order as GroupFromPset builds them — the line
// two launch modes must print identically.
func psetsApp(p *mpi.Process) error {
	sess, err := p.SessionInit(nil, nil)
	if err != nil {
		return err
	}
	defer sess.Finalize()
	n, err := sess.NumPsets()
	if err != nil {
		return err
	}
	if p.JobRank() == 0 {
		names := make([]string, 0, n)
		for i := 0; i < n; i++ {
			name, err := sess.PsetName(i)
			if err != nil {
				return err
			}
			names = append(names, name)
		}
		sort.Strings(names)
		fmt.Printf("%d process sets visible to rank 0:\n", n)
		for _, name := range names {
			info, err := sess.PsetInfo(name)
			if err != nil {
				return err
			}
			size, _ := info.Get("mpi_size")
			grp, err := sess.GroupFromPset(name)
			if err != nil {
				return err
			}
			fmt.Printf("  %-20s size=%s members=%v\n", name, size, grp.GlobalRanks())
			grp.Free()
		}
	}
	return nil
}
