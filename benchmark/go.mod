module github.com/reversecloak/reversecloak/benchmark

go 1.21

require github.com/reversecloak/reversecloak v0.0.0

replace github.com/reversecloak/reversecloak => ../
