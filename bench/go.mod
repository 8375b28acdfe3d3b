module ros/bench

go 1.22

require ros v0.0.0

replace ros => ../
