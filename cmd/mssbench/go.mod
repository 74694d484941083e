module p2pmss/cmd/mssbench

go 1.22

require p2pmss v0.0.0

replace p2pmss => ../..
