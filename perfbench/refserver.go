package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"strings"
	"time"
)

// The reference server is a frozen stand-in for the daemon's ingest door,
// run as a child process of the benchmark (the benchmark binary with
// -refserver). It answers each report line the way the door does — read
// the line, decode its JSON, write "ok" — but calls no repo code, so no
// change to the program can speed it up. Floods alternate between the
// daemon and it on the same CPUs, and the end-to-end ack metrics are the
// daemon's ack latency divided by its own in the same second: the part of
// a round trip the host's drift sets (wake-ups, syscalls, the speed of
// the CPUs at that moment) cancels, and what is left is what the program
// adds to it.

// refReport is a frozen copy of the report fields the generator sends.
type refReport struct {
	Fleet       string  `json:"fleet,omitempty"`
	Participant int     `json:"participant"`
	Slot        int     `json:"slot"`
	X           float64 `json:"x"`
	Y           float64 `json:"y"`
	VX          float64 `json:"vx"`
	VY          float64 `json:"vy"`
}

// serveRef is the reference server's main: it listens on an ephemeral
// loopback port, prints the address as its first line of output, and
// serves until it is killed.
func serveRef() int {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench -refserver:", err)
		return 1
	}
	fmt.Println(ln.Addr().String())
	for {
		c, err := ln.Accept()
		if err != nil {
			return 1
		}
		go handleRef(c)
	}
}

func handleRef(c net.Conn) {
	defer c.Close()
	sc := bufio.NewScanner(c)
	sc.Buffer(make([]byte, 0, 4096), 1<<20)
	w := bufio.NewWriter(c)
	for sc.Scan() {
		var r refReport
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			_, _ = w.WriteString("err bad json\n")
		} else {
			_, _ = w.WriteString("ok\n")
		}
		_ = w.Flush()
	}
}

// refServer is a running reference server.
type refServer struct {
	*child
	addr string
}

// startRefServer starts the reference server and waits for its address.
func startRefServer() (*refServer, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	addr := make(chan string, 1)
	c, err := startChild(exec.Command(self, "-refserver"), func(out io.Reader) {
		line, _ := bufio.NewReader(out).ReadString('\n')
		addr <- strings.TrimSpace(line)
	})
	if err != nil {
		return nil, err
	}
	select {
	case a := <-addr:
		if a == "" {
			c.stop()
			return nil, errors.New("reference server exited before serving")
		}
		return &refServer{child: c, addr: a}, nil
	case <-time.After(30 * time.Second):
		c.stop()
		return nil, errors.New("reference server did not report its address")
	}
}
