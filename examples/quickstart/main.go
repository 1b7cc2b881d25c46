// Quickstart: a minimal deterministic reactor program.
//
// Two reactors are connected by a typed port: a source emits a counter
// value every 100ms of logical time and a sink prints it. Reactions are
// logically instantaneous; the program's behaviour is a pure function of
// its inputs, independent of physical timing.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	dear "repro"
)

func main() {
	// With no clock the program runs on logical time alone, as fast as
	// events allow; an SWC's reactor program (see examples/pipeline)
	// runs on a simulated platform's clock instead.
	env := dear.NewEnvironment(dear.Options{
		Fast:    true,
		Timeout: dear.Duration(1 * dear.Second),
	})

	src := env.NewReactor("source")
	sink := env.NewReactor("sink")

	out := dear.NewOutputPort[int](src, "out")
	in := dear.NewInputPort[int](sink, "in")
	dear.Connect(out, in)

	tick := dear.NewTimer(src, "tick", 0, dear.Duration(100*dear.Millisecond))
	count := 0
	src.AddReaction("emit").Triggers(tick).Effects(out).Do(func(c *dear.ReactionCtx) {
		count++
		out.Set(c, count)
	})

	sink.AddReaction("print").Triggers(in).Do(func(c *dear.ReactionCtx) {
		v, _ := in.Get(c)
		fmt.Printf("t=%-8v  received %d\n", c.Elapsed(), v)
	})

	sink.AddReaction("bye").Triggers(sink.Shutdown()).Do(func(c *dear.ReactionCtx) {
		fmt.Printf("shutdown at %v after %d messages\n", c.Elapsed(), count)
	})

	if err := env.Run(); err != nil {
		log.Fatal(err)
	}
}
