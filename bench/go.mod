module pmsort/bench

go 1.23

require pmsort v0.0.0

replace pmsort => ../
