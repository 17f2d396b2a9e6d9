module mbrtopo/bench

go 1.23

require mbrtopo v0.0.0

replace mbrtopo => ../
