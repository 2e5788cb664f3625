module sisg/benchmark

go 1.22

require sisg v0.0.0

replace sisg => ../
