package page

// scanPage writes into m the mask of the 8-byte words in which the two
// pages differ. See scan_amd64.s; scanGo is the oracle.
//
//go:noescape
func scanPage(m *Mask, twin, current *[Size]byte)
