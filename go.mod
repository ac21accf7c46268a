module virtnet

go 1.23
