package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

// refPipe is a reference pipeline in a child process: benchmark code, not
// program code, with the wall-clock runtime's shape — a source goroutine
// woken by a 2 ms ticker emits batches of keys at a fixed rate to two
// worker goroutines over channels, and each worker counts its keys in a
// map. It runs beside a wall-clock workload, so every second it is slowed
// by whatever slows the workload in that second (the VM's speed, a
// neighbour on the host), and its CPU per second measures that.
type refPipe struct {
	cmd *exec.Cmd
	in  io.WriteCloser
	out *bufio.Reader
}

const (
	refPipeEnv  = "PERFBENCH_REFPIPE"
	refPipeRate = 200_000 // keys/s
	// refPipeNominal is the pipeline's CPU share at the reference speed:
	// its typical share on the 2-vCPU VM the benchmark was calibrated on.
	// Any constant would do; this one keeps scaled numbers close to raw.
	refPipeNominal = 0.07
)

// startRefPipe re-executes this binary as the reference pipeline.
func startRefPipe() (*refPipe, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), refPipeEnv+"=1")
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	return &refPipe{cmd: cmd, in: in, out: bufio.NewReader(out)}, nil
}

// cpu asks the pipeline for the CPU time it has used so far.
func (r *refPipe) cpu() (time.Duration, error) {
	if _, err := r.in.Write([]byte{'\n'}); err != nil {
		return 0, err
	}
	line, err := r.out.ReadString('\n')
	if err != nil {
		return 0, err
	}
	n, err := strconv.ParseInt(strings.TrimSpace(line), 10, 64)
	return time.Duration(n), err
}

// stop ends the pipeline (it exits when its standard input closes) and
// waits for it.
func (r *refPipe) stop() error {
	r.in.Close()
	return r.cmd.Wait()
}

// refPipeMain is the child's main when refPipeEnv is set: it runs the
// pipeline and answers each byte on standard input with its CPU time in
// nanoseconds, until standard input closes.
func refPipeMain() {
	if os.Getenv(refPipeEnv) == "" {
		return
	}
	const workers, ringLen, keys = 2, 1 << 16, 10_000
	ring := make([]int, ringLen)
	x := uint64(7)
	for i := range ring {
		x = x*6364136223846793005 + 1442695040888963407
		u := float64(x>>11) / (1 << 53)
		ring[i] = int(u * u * keys) // skewed toward low keys
	}
	chans := make([]chan []int, workers)
	for w := range chans {
		ch := make(chan []int, 64)
		chans[w] = ch
		go func() {
			counts := make(map[int]int64)
			for b := range ch {
				for _, k := range b {
					counts[k]++
				}
			}
		}()
	}
	go func() {
		tick := time.NewTicker(2 * time.Millisecond)
		last := time.Now()
		tokens, next := 0.0, 0
		for now := range tick.C {
			tokens += refPipeRate * now.Sub(last).Seconds()
			last = now
			batches := make([][]int, workers)
			for ; tokens >= 1; tokens-- {
				k := ring[next&(ringLen-1)]
				next++
				batches[k%workers] = append(batches[k%workers], k)
			}
			for w, b := range batches {
				if len(b) > 0 {
					chans[w] <- b
				}
			}
		}
	}()
	in := bufio.NewReader(os.Stdin)
	for {
		if _, err := in.ReadByte(); err != nil {
			os.Exit(0)
		}
		fmt.Println(int64(selfCPU()))
	}
}
