package runtime

import (
	"crypto/rand"
	"encoding/binary"
	"fmt"

	"gompi/internal/core"
	"gompi/internal/pmix"
	"gompi/internal/prrte"
	"gompi/internal/simnet"
	"gompi/internal/topo"

	"gompi/mpi"
)

// Process mode: instead of NP goroutines over a simulated fabric, prun forks
// NP real OS processes that carry PML traffic over the udp BTL and
// out-of-band traffic through the parent's BootServer. Each child calls
// RunProcess with its rank from the environment; the child-side substrate is
// a one-rank sliver of the job — a local zero-delay fabric (sm and net stay
// selectable but can only ever reach this rank), a pmix.Server backed by a
// BootClient, and a single core.Instance.

// ProcOptions configures one child process of a process-mode job.
type ProcOptions struct {
	// NP is the job's total rank count (GOMPI_NP).
	NP int
	// Rank is this process's rank (GOMPI_RANK).
	Rank int
	// BootAddr is the parent's rendezvous address (GOMPI_BOOT).
	BootAddr string
	// Config is the per-process MPI configuration; the launcher forces
	// BTL="udp" and stamps the job nonce (GOMPI_NONCE) into it.
	Config core.Config
}

// NewJobNonce draws a fresh random job nonce for udp frame filtering.
func NewJobNonce() uint64 {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("runtime: job nonce: %v", err))
	}
	n := binary.LittleEndian.Uint64(b[:])
	if n == 0 {
		n = 1 // zero means "unset" in Config
	}
	return n
}

// RunProcess runs main as one rank of a process-mode job and returns its
// error (the child's exit status). It mirrors Launch's panic handling: a
// panicking rank aborts through PMIx so its peers observe a process-failure
// event instead of a hang.
func RunProcess(opts ProcOptions, main func(p *mpi.Process) error) error {
	if opts.NP <= 0 || opts.Rank < 0 || opts.Rank >= opts.NP {
		return fmt.Errorf("runtime: rank %d of %d out of range", opts.Rank, opts.NP)
	}
	boot, err := prrte.DialBoot(opts.BootAddr, opts.Rank, opts.NP)
	if err != nil {
		return err
	}
	defer boot.Close()

	// The local fabric spans NP zero-delay nodes so that node == rank holds
	// for every JobMap computation (PPN=1), but only this rank's node is
	// ever used: sm finds no co-located peers and net resolves nobody,
	// leaving udp as the only transport that reaches other ranks.
	fabric := simnet.NewFabric(topo.New(topo.Loopback(1), opts.NP))
	job := prrte.JobMap{NP: opts.NP, PPN: 1}
	server := pmix.NewServer(boot, job, "job-0")
	defer server.Close()

	inst := core.NewInstance(core.Deps{
		Fabric: fabric,
		Server: server,
		Rank:   opts.Rank,
		Cfg:    opts.Config,
	})

	if re := runRank(inst, opts.Rank, main); re != nil {
		return *re
	}
	return nil
}
