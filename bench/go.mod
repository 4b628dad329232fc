module xrtree/bench

go 1.22

require xrtree v0.0.0

replace xrtree => ../
