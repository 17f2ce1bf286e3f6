exception Singular of int
