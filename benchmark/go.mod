module sws/benchmark

go 1.22

require sws v0.0.0

replace sws => ../
