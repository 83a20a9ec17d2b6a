//go:build !amd64

package page

func scanPage(m *Mask, twin, current *[Size]byte) { *m = scanGo(twin[:], current[:]) }
