// Command someip-dump decodes SOME/IP messages: the header,
// service-discovery payloads, and the DEAR tag trailer — from hex
// input or from a recorded trace file.
//
// Usage:
//
//	someip-dump <hex>           decode one message given as a hex string
//	echo <hex> | someip-dump    decode messages from stdin, one per line
//	someip-dump -trace <file>   decode the recorded messages of a trace
//	                            file (see experiments -trace)
//
// Example:
//
//	someip-dump $(figure-hex) # 16-byte header + payload [+ 20-byte trailer]
package main

import (
	"bufio"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/someip"
	"repro/internal/trace"
)

func main() {
	traceFile := flag.String("trace", "", "decode the recorded SOME/IP messages of a trace file")
	flag.Parse()
	if *traceFile != "" {
		if flag.NArg() > 0 {
			fmt.Fprintln(os.Stderr, "someip-dump: -trace and hex arguments are mutually exclusive")
			os.Exit(2)
		}
		dumpTrace(*traceFile)
		return
	}
	if flag.NArg() > 0 {
		for _, arg := range flag.Args() {
			dump(arg)
		}
		return
	}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		dump(line)
	}
}

// dumpTrace walks a recorded trace: records that stored their message
// bytes (captured inputs) are decoded with the full dumper; digest-
// only records print as one-line summaries.
func dumpTrace(path string) {
	tr, err := trace.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "someip-dump: %v\n", err)
		os.Exit(1)
	}
	if tr.Truncated > 0 {
		fmt.Printf("# trace truncated: %d records evicted\n", tr.Truncated)
	}
	for i := 0; i < tr.Len(); i++ {
		r := tr.At(i)
		fmt.Printf("--- record %d: %s\n", i, r.String())
		if r.Data == nil {
			continue
		}
		m, err := someip.UnmarshalTagged(r.Data)
		if err != nil {
			fmt.Printf("stored bytes      malformed: %v\n", err)
			continue
		}
		dumpMessage(m)
	}
}

func dump(hexStr string) {
	hexStr = strings.Map(func(r rune) rune {
		switch r {
		case ' ', '\t', ':', '-':
			return -1
		}
		return r
	}, hexStr)
	raw, err := hex.DecodeString(hexStr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "someip-dump: bad hex: %v\n", err)
		os.Exit(1)
	}
	m, err := someip.UnmarshalTagged(raw)
	if err != nil {
		fmt.Fprintf(os.Stderr, "someip-dump: %v\n", err)
		os.Exit(1)
	}
	dumpMessage(m)
}

func dumpMessage(m *someip.Message) {
	fmt.Printf("service          0x%04x\n", uint16(m.Service))
	fmt.Printf("method/event     0x%04x", uint16(m.Method))
	if m.Method.IsEvent() {
		fmt.Printf(" (event 0x%04x)", uint16(m.Method&^0x8000))
	}
	fmt.Println()
	fmt.Printf("client/session   0x%04x / 0x%04x\n", uint16(m.Client), uint16(m.Session))
	fmt.Printf("interface ver.   %d\n", m.InterfaceVersion)
	fmt.Printf("type             %s\n", m.Type)
	fmt.Printf("return code      %s\n", m.Code)
	fmt.Printf("payload          %d bytes\n", len(m.Payload))
	if m.Tag != nil {
		fmt.Printf("DEAR tag         time=%d ns, microstep=%d\n", int64(m.Tag.Time), m.Tag.Microstep)
	}
	if m.IsSD() {
		entries, err := someip.UnmarshalSD(m.Payload)
		if err != nil {
			fmt.Printf("SD payload       malformed: %v\n", err)
			return
		}
		for i, e := range entries {
			fmt.Printf("SD entry %d       %s service=0x%04x instance=0x%04x major=%d ttl=%d",
				i, e.Type, uint16(e.Service), uint16(e.Instance), e.Major, e.TTL)
			if e.Type == someip.SubscribeEventgroup || e.Type == someip.SubscribeEventgroupAck {
				fmt.Printf(" eventgroup=0x%04x", e.Eventgroup)
			} else {
				fmt.Printf(" minor=%d", e.Minor)
			}
			fmt.Println()
			for _, o := range e.Options {
				ip := someip.AddrToIPv4(o.Addr)
				fmt.Printf("  option         IPv4 %d.%d.%d.%d:%d proto=0x%02x\n",
					ip[0], ip[1], ip[2], ip[3], o.Addr.Port, o.Proto)
			}
		}
	} else if len(m.Payload) > 0 {
		n := len(m.Payload)
		if n > 64 {
			n = 64
		}
		fmt.Printf("payload hex      %s", hex.EncodeToString(m.Payload[:n]))
		if n < len(m.Payload) {
			fmt.Printf("... (+%d bytes)", len(m.Payload)-n)
		}
		fmt.Println()
	}
}
