module nowomp/benchmark

go 1.24

require nowomp v0.0.0

replace nowomp => ../
