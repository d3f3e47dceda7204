# Hand-written guard for the opcodes the fuzz generator never emits:
# sllv, srlv, srav, dsllv, dsrlv, dsrav, dsra32, sltiu, j, jal, jr and
# jalr (both link forms), plus a backward-branch loop. Both CPUs must
# agree on every result. Calls return through addresses derived from
# the link register, so the program runs at any code base.
        li       $t0, -123457
        daddiu   $t1, $zero, 37
        sllv     $t2, $t0, $t1
        srlv     $t3, $t0, $t1
        srav     $t4, $t0, $t1
        dsllv    $t5, $t0, $t1
        dsrlv    $t6, $t0, $t1
        dsrav    $t7, $t0, $t1
        dsll32   $t8, $t0, 4
        dsra32   $t9, $t8, 3
        sltiu    $v0, $t0, 100       # unsigned: t0 is huge
        sltiu    $v1, $t1, 100
        daddiu   $a0, $zero, 5
loop:   daddiu   $a0, $a0, -1        # backward branch: five trips
        bgtz     $a0, loop
        daddu    $a1, $a1, $a0       # delay slot runs every trip
        jal      leaf                # ra = back
        daddiu   $a2, $zero, 7
back:   daddiu   $s1, $ra, 16        # s1 = leaf, four words on
        j        calls
        nop
        break                        # skipped by the jump
leaf:   jr       $ra
        daddiu   $a3, $a2, 1
leaf2:  jr       $s3
        daddiu   $s4, $a3, 1
calls:  jalr     $s1                 # links through ra
        nop
        daddiu   $s2, $s1, 8         # s2 = leaf2
        jalr     $s3, $s2
        nop
        break
