package machine

import "encoding/binary"

// AppendDurable appends every registered device's canonical durable
// encoding to b, in registration order (which is deterministic for a
// deterministic Setup).
func (m *Machine) AppendDurable(b []byte) []byte {
	for i, d := range m.devices {
		b = AppendUint64(b, uint64(i))
		b = d.AppendDurable(b)
	}
	return b
}

// AppendUint64 appends v in fixed-width little-endian form. Helper for
// Device.AppendDurable implementations.
func AppendUint64(b []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(b, v)
}

// AppendBool appends a bool as one byte. Helper for
// Device.AppendDurable implementations.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// AppendString appends s length-prefixed, keeping concatenated
// encodings unambiguous. Helper for Device.AppendDurable
// implementations.
func AppendString(b []byte, s string) []byte {
	b = AppendUint64(b, uint64(len(s)))
	return append(b, s...)
}

// AppendBytes appends p length-prefixed. Helper for
// Device.AppendDurable implementations.
func AppendBytes(b []byte, p []byte) []byte {
	b = AppendUint64(b, uint64(len(p)))
	return append(b, p...)
}
