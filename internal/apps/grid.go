package apps

// Stencil blocks are stored ghost-padded: a w x h block lives in a
// (w+2) x (h+2) row-major array whose outer ring holds the neighbor
// values the 5-point stencil reads across the block's four sides. Each
// Step first fills that ring (fillGhosts) and then runs a branch-free
// loop over the interior rows. The four corner cells are never read.

// ghostLen returns the padded array length for a w x h block.
func ghostLen(w, h int) int { return (w + 2) * (h + 2) }

// ghostIdx returns the padded-array index of block-local cell (x, y).
func ghostIdx(w, x, y int) int { return (y+1)*(w+2) + x + 1 }

// fillGhosts writes the ghost ring of g from the received edges. A nil
// edge is a physical boundary: the north strip then holds north, the
// other three hold 0.
func fillGhosts(g []float64, w, h int, edges *[numDirs][]float64, north float64) {
	s := w + 2
	fillRow(g[1:1+w], edges[dirN], north)
	fillRow(g[(h+1)*s+1:(h+1)*s+1+w], edges[dirS], 0)
	fillCol(g[s:], s, h, edges[dirW])
	fillCol(g[s+w+1:], s, h, edges[dirE])
}

func fillRow(dst, edge []float64, boundary float64) {
	if edge != nil {
		copy(dst, edge)
		return
	}
	for i := range dst {
		dst[i] = boundary
	}
}

// fillCol writes n cells of a column starting at g[0], stride s apart.
func fillCol(g []float64, s, n int, edge []float64) {
	if edge == nil {
		for y := 0; y < n; y++ {
			g[y*s] = 0
		}
		return
	}
	for y, v := range edge[:n] {
		g[y*s] = v
	}
}

// appendEdge appends the block's boundary row or column facing d to dst.
func appendEdge(dst, g []float64, w, h, d int) []float64 {
	s := w + 2
	switch d {
	case dirN:
		return append(dst, g[s+1:s+1+w]...)
	case dirS:
		return append(dst, g[h*s+1:h*s+1+w]...)
	case dirW:
		for y := 1; y <= h; y++ {
			dst = append(dst, g[y*s+1])
		}
		return dst
	case dirE:
		for y := 1; y <= h; y++ {
			dst = append(dst, g[y*s+w])
		}
		return dst
	}
	panic("apps: bad edge direction")
}
