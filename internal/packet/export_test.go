package packet

import "encoding/binary"

// IPFromUint32 converts a big-endian integer to an address.
func IPFromUint32(v uint32) IPAddr {
	var ip IPAddr
	binary.BigEndian.PutUint32(ip[:], v)
	return ip
}

// NewTCP builds a TCP segment from src to dst; hosts build theirs from a
// Pool (Pool.TCP).
func NewTCP(src, dst Endpoint, seq, ack uint32, flags uint8, window uint16, payload []byte) *Packet {
	p := &Packet{Payload: payload}
	p.setTCP(src, dst, seq, ack, flags, window)
	return p
}
