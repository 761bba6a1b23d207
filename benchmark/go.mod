module dxbar/benchmark

go 1.22

require dxbar v0.0.0

replace dxbar => ../
