module amtlci/benchmark

go 1.24

require amtlci v0.0.0

replace amtlci => ../
