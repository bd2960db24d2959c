module gsqlgo/benchmark

go 1.22

require gsqlgo v0.0.0

replace gsqlgo => ../
