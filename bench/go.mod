module beambench/bench

go 1.24

require beambench v0.0.0

replace beambench => ../
