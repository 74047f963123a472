"""OO7 benchmark database: parameters, logical schema graph, builders."""
