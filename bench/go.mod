module hyperq/bench

go 1.22

require hyperq v0.0.0

replace hyperq => ../
