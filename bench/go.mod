module fuiov/bench

go 1.22

require fuiov v0.0.0

replace fuiov => ../
