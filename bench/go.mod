module github.com/splaykit/splay/bench

go 1.24

require github.com/splaykit/splay v0.0.0

replace github.com/splaykit/splay => ../
