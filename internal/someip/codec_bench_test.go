package someip

import (
	"testing"

	"repro/internal/logical"
	"repro/internal/simnet"
)

// BenchmarkTagTrailerOverhead is the E6 ablation: codec cost with and
// without the DEAR tag trailer.
func BenchmarkTagTrailerOverhead(b *testing.B) {
	payload := make([]byte, 1548) // one video frame
	plain := &Message{Service: 1, Method: EventID(1), Type: TypeNotification, Payload: payload}
	tag := logical.Tag{Time: 123456789, Microstep: 2}
	tagged := &Message{Service: 1, Method: EventID(1), Type: TypeNotification, Payload: payload, Tag: &tag}

	b.Run("marshal-plain", func(b *testing.B) {
		buf := make([]byte, plain.WireSize())
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			plain.MarshalTo(buf)
		}
	})
	b.Run("marshal-tagged", func(b *testing.B) {
		buf := make([]byte, tagged.WireSize())
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tagged.MarshalTo(buf)
		}
	})
	wirePlain := plain.Marshal()
	wireTagged := tagged.Marshal()
	b.Run("unmarshal-plain", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := UnmarshalTagged(wirePlain); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("unmarshal-tagged", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := UnmarshalTagged(wireTagged); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSomeIPSDCodec measures service-discovery encode/decode.
func BenchmarkSomeIPSDCodec(b *testing.B) {
	entries := []Entry{{
		Type: OfferService, Service: 0x1234, Instance: 1,
		Major: 1, Minor: 0, TTL: 3,
		Options: []Option{{Type: IPv4EndpointOption, Addr: simnet.Addr{Host: 2, Port: 40000}, Proto: UDPProto}},
	}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		payload := MarshalSD(entries)
		if _, err := UnmarshalSD(payload); err != nil {
			b.Fatal(err)
		}
	}
}
