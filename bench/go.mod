module github.com/unify-repro/escape/bench

go 1.24

require github.com/unify-repro/escape v0.0.0

replace github.com/unify-repro/escape => ../
