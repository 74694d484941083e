//go:build race

package transport

// poisonBytes fills a recycled buffer under the race detector.
var poisonBytes = func() (b [512]byte) {
	for i := range b {
		b[i] = 0xdb
	}
	return b
}()

// poison overwrites a buffer the transport is about to reuse. A handler,
// decoder or test that kept a borrowed payload past its handler's return
// then reads 0xdb bytes instead of passing by luck until the buffer
// happens to be reused.
func poison(b []byte) {
	for len(b) > 0 {
		b = b[copy(b, poisonBytes[:]):]
	}
}
