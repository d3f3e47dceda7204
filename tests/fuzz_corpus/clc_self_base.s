# Regression guard for a CLC through its own base register, the
# `c = c->next` idiom: `clc $c3, $zero, 0($c3)` replaces the very
# capability it addressed through. The data memo entry the CLC mints
# must be keyed by the vaddr it read (arena + 0). Keyed by the
# overwritten base instead, it mapped arena + 256, where the loaded
# capability points, to the physical line of arena + 0, so above the
# reference tier the `cld $v1` through the new c3 read the stored
# capability's first word (0x7fffffff) instead of 42. The `ld` at
# arena + 32 KiB evicts the memo slot of arena + 0, so the CLC takes
# the slow path that mints the memo.
        lui      $t8, 0x10
        cincbase $c1, $c0, $t8
        daddiu   $t8, $zero, 4096
        csetlen  $c1, $c1, $t8
        daddiu   $t8, $zero, 256
        cincbase $c2, $c1, $t8
        daddiu   $t9, $zero, 42
        csd      $t9, $zero, 0($c2)
        csc      $c2, $zero, 0($c1)
        cincbase $c3, $c1, $zero
        lui      $t8, 0x10
        ori      $t8, $t8, 0x8000
        ld       $v0, 0($t8)
        clc      $c3, $zero, 0($c3)
        cld      $v1, $zero, 0($c3)
        break
