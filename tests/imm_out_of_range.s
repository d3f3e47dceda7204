addiu $t0, $t0, 40000
