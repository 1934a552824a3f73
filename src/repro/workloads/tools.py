"""Runnable mini-tools: the §4.3 multiprogram-benchmark toolbox.

Each tool is a genuine SVM32 assembly program doing real work against
the simulated VFS — cat copies bytes, gzip actually run-length
compresses, tar actually packs archives — so an authenticated build
exercises the full checking machinery on every call.

Register conventions (see :mod:`repro.workloads.runtime`): durable
state in r11..r14; helpers clobber r0/r9/r10; r7/r8 are reserved for
the installer.
"""

from __future__ import annotations

from repro.asm import assemble
from repro.binfmt import SefBinary
from repro.workloads.runtime import runtime_source

IOBUF = 16384

_PROLOGUE = """
.section .text
.global _start
_start:
    mov r12, r1          ; argc
    mov r13, r2          ; argv
"""

#: Shared data/bss epilogue: an I/O buffer and a name scratch buffer.
_BSS = f"""
.section .bss
iobuf:
    .space {IOBUF}
obuf:
    .space {IOBUF}
namebuf:
    .space 256
ptrbuf:
    .space 2048
"""


def _arg(reg: str, index_reg: str) -> str:
    """Load argv[index_reg] into ``reg`` (clobbers r9)."""
    return f"""
    shli r9, {index_reg}, 2
    add r9, r13, r9
    ld {reg}, [r9+0]
"""


_FAIL = """
fail:
    li r1, 1
    call sys_exit
"""

_OK = """
done:
    li r1, 0
    call sys_exit
"""


def _tool_cat() -> str:
    return (
        _PROLOGUE
        + """
    li r11, 1            ; arg index
next_file:
    cmp r11, r12
    bge done
"""
        + _arg("r1", "r11")
        + """
    li r2, 0             ; O_RDONLY
    call sys_open
    cmpi r0, 0
    blt fail
    mov r14, r0          ; fd
read_loop:
    mov r1, r14
    li r2, iobuf
    li r3, 4096
    call sys_read
    cmpi r0, 0
    ble close_file
    mov r3, r0
    li r1, 1
    li r2, iobuf
    call sys_write
    jmp read_loop
close_file:
    mov r1, r14
    call sys_close
    addi r11, r11, 1
    jmp next_file
"""
        + _OK
        + _FAIL
        + _BSS
    )


def _tool_cp() -> str:
    return (
        _PROLOGUE
        + """
    cmpi r12, 3
    blt fail
    li r11, 1
"""
        + _arg("r1", "r11")
        + """
    li r2, 0
    call sys_open
    cmpi r0, 0
    blt fail
    mov r14, r0          ; src fd
    li r11, 2
"""
        + _arg("r1", "r11")
        + """
    li r2, 0x241         ; O_WRONLY|O_CREAT|O_TRUNC
    li r3, 0x1a4         ; 0644
    call sys_open
    cmpi r0, 0
    blt fail
    mov r13, r0          ; dst fd (argv no longer needed)
copy_loop:
    mov r1, r14
    li r2, iobuf
    li r3, 4096
    call sys_read
    cmpi r0, 0
    ble copy_done
    mov r3, r0
    mov r1, r13
    li r2, iobuf
    call sys_write
    jmp copy_loop
copy_done:
    mov r1, r14
    call sys_close
    mov r1, r13
    call sys_close
"""
        + _OK
        + _FAIL
        + _BSS
    )


def _tool_mv() -> str:
    return (
        _PROLOGUE
        + """
    cmpi r12, 3
    blt fail
    li r11, 1
"""
        + _arg("r1", "r11")
        + """
    li r11, 2
"""
        + _arg("r2", "r11")
        + """
    call sys_rename
    cmpi r0, 0
    blt fail
"""
        + _OK
        + _FAIL
        + _BSS
    )


def _tool_rm() -> str:
    return (
        _PROLOGUE
        + """
    li r11, 1
next_file:
    cmp r11, r12
    bge done
"""
        + _arg("r1", "r11")
        + """
    call sys_unlink
    cmpi r0, 0
    blt fail
    addi r11, r11, 1
    jmp next_file
"""
        + _OK
        + _FAIL
        + _BSS
    )


def _tool_mkdir() -> str:
    return (
        _PROLOGUE
        + """
    li r11, 1
next_dir:
    cmp r11, r12
    bge done
"""
        + _arg("r1", "r11")
        + """
    li r2, 0x1ed         ; 0755
    call sys_mkdir
    cmpi r0, 0
    blt fail
    addi r11, r11, 1
    jmp next_dir
"""
        + _OK
        + _FAIL
        + _BSS
    )


def _tool_chmod() -> str:
    # chmod <octal-mode> file...: parses the mode string in guest code.
    return (
        _PROLOGUE
        + """
    cmpi r12, 3
    blt fail
    li r11, 1
"""
        + _arg("r14", "r11")
        + """
    li r10, 0            ; mode accumulator
parse_loop:
    ldb r9, [r14+0]
    cmpi r9, 0
    beq parse_done
    subi r9, r9, 48      ; '0'
    cmpi r9, 7
    bgt fail
    shli r10, r10, 3
    add r10, r10, r9
    addi r14, r14, 1
    jmp parse_loop
parse_done:
    mov r14, r10         ; mode
    li r11, 2
next_file:
    cmp r11, r12
    bge done
"""
        + _arg("r1", "r11")
        + """
    mov r2, r14
    call sys_chmod
    cmpi r0, 0
    blt fail
    addi r11, r11, 1
    jmp next_file
"""
        + _OK
        + _FAIL
        + _BSS
    )


def _tool_chdir() -> str:
    return (
        _PROLOGUE
        + """
    cmpi r12, 2
    blt fail
    li r11, 1
"""
        + _arg("r1", "r11")
        + """
    call sys_chdir
    cmpi r0, 0
    blt fail
    li r1, namebuf
    li r2, 256
    call sys_getcwd
    cmpi r0, 0
    blt fail
    subi r3, r0, 1       ; drop the NUL
    li r1, 1
    li r2, namebuf
    call sys_write
"""
        + _OK
        + _FAIL
        + _BSS
    )


def _tool_ls() -> str:
    return (
        _PROLOGUE
        + """
    cmpi r12, 2
    blt use_dot
    li r11, 1
"""
        + _arg("r1", "r11")
        + """
    jmp open_dir
use_dot:
    li r1, dot
open_dir:
    li r2, 0
    call sys_open
    cmpi r0, 0
    blt fail
    mov r14, r0
dents_loop:
    mov r1, r14
    li r2, iobuf
    li r3, 4096
    li r4, 0
    call sys_getdirentries
    cmpi r0, 0
    ble ls_done
    mov r11, r0          ; bytes in buffer
    li r12, 0            ; cursor
entry_loop:
    cmp r12, r11
    bge dents_loop
    ; record: ino u32, namelen u16, name...
    li r9, iobuf
    add r9, r9, r12
    ldb r10, [r9+4]      ; namelen low byte (names < 256)
    addi r12, r12, 6     ; header size
    li r9, iobuf
    add r2, r9, r12      ; name pointer
    subi r3, r10, 1      ; exclude NUL
    li r1, 1
    call sys_write
    li r1, 1
    li r2, newline
    li r3, 1
    call sys_write
    add r12, r12, r10
    jmp entry_loop
ls_done:
    mov r1, r14
    call sys_close
"""
        + _OK
        + _FAIL
        + """
.section .rodata
dot:
    .asciz "."
newline:
    .asciz "\\n"
"""
        + _BSS
    )


def _tool_tar() -> str:
    """tar <archive> <member>...: pack files into a simple archive.

    Record: [namelen u32][size u32][name][data]; a zero namelen ends
    the archive."""
    return (
        _PROLOGUE
        + """
    cmpi r12, 3
    blt fail
    li r11, 1
"""
        + _arg("r1", "r11")
        + """
    li r2, 0x241
    li r3, 0x1a4
    call sys_open
    cmpi r0, 0
    blt fail
    mov r14, r0          ; archive fd
    li r11, 2
member_loop:
    cmp r11, r12
    bge finish
"""
        + _arg("r1", "r11")
        + """
    mov r4, r1           ; member name
    li r2, 0
    call sys_open
    cmpi r0, 0
    blt fail
    mov r5, r0           ; member fd
    ; read member into iobuf
    mov r1, r5
    li r2, iobuf
    li r3, 16384
    call sys_read
    cmpi r0, 0
    blt fail
    mov r6, r0           ; size
    mov r1, r5
    call sys_close
    ; name length
    mov r1, r4
    call rt_strlen
    mov r10, r0          ; namelen
    ; header into obuf
    li r9, obuf
    st r10, [r9+0]
    st r6, [r9+4]
    ; write header
    mov r1, r14
    li r2, obuf
    li r3, 8
    call sys_write
    ; write name
    mov r1, r14
    mov r2, r4
    mov r3, r10
    call sys_write
    ; write data
    mov r1, r14
    li r2, iobuf
    mov r3, r6
    call sys_write
    addi r11, r11, 1
    jmp member_loop
finish:
    li r9, obuf
    li r10, 0
    st r10, [r9+0]
    mov r1, r14
    li r2, obuf
    li r3, 4
    call sys_write
    mov r1, r14
    call sys_close
"""
        + _OK
        + _FAIL
        + _BSS
    )


def _tool_untar() -> str:
    """untar <archive>: unpack into the current directory."""
    return (
        _PROLOGUE
        + """
    cmpi r12, 2
    blt fail
    li r11, 1
"""
        + _arg("r1", "r11")
        + """
    li r2, 0
    call sys_open
    cmpi r0, 0
    blt fail
    mov r14, r0          ; archive fd
record_loop:
    ; read namelen
    mov r1, r14
    li r2, obuf
    li r3, 4
    call sys_read
    cmpi r0, 4
    blt done
    li r9, obuf
    ld r11, [r9+0]       ; namelen
    cmpi r11, 0
    beq done
    cmpi r11, 255
    bgt fail
    ; read size
    mov r1, r14
    li r2, obuf
    li r3, 4
    call sys_read
    li r9, obuf
    ld r12, [r9+0]       ; size
    ; read name into namebuf
    mov r1, r14
    li r2, namebuf
    mov r3, r11
    call sys_read
    li r9, namebuf
    add r9, r9, r11
    li r10, 0
    stb r10, [r9+0]
    ; read data into iobuf
    mov r1, r14
    li r2, iobuf
    mov r3, r12
    call sys_read
    ; create the file
    li r1, namebuf
    li r2, 0x241
    li r3, 0x1a4
    call sys_open
    cmpi r0, 0
    blt fail
    mov r4, r0
    mov r1, r4
    li r2, iobuf
    mov r3, r12
    call sys_write
    mov r1, r4
    call sys_close
    jmp record_loop
"""
        + _OK
        + _FAIL
        + _BSS
    )


_GZ_SUFFIX = """
.section .rodata
gz_suffix:
    .asciz ".gz"
"""


def _tool_gzip() -> str:
    """gzip <file>: RLE-compress to <file>.gz and unlink the original.

    Output format: pairs of [count byte][value byte]."""
    return (
        _PROLOGUE
        + """
    cmpi r12, 2
    blt fail
    li r11, 1
"""
        + _arg("r14", "r11")
        + """
    mov r1, r14
    li r2, 0
    call sys_open
    cmpi r0, 0
    blt fail
    mov r11, r0
    mov r1, r11
    li r2, iobuf
    li r3, 16384
    call sys_read
    cmpi r0, 0
    blt fail
    mov r12, r0          ; input size
    mov r1, r11
    call sys_close
    ; compress iobuf[0..r12) into obuf, cursor r5 in, r6 out
    li r5, 0
    li r6, 0
rle_loop:
    cmp r5, r12
    bge rle_done
    li r9, iobuf
    add r9, r9, r5
    ldb r4, [r9+0]       ; current byte
    li r3, 1             ; run length
run_scan:
    add r9, r5, r3
    cmp r9, r12
    bge run_emit
    cmpi r3, 255
    bge run_emit
    li r10, iobuf
    add r10, r10, r9
    ldb r9, [r10+0]
    cmp r9, r4
    bne run_emit
    addi r3, r3, 1
    jmp run_scan
run_emit:
    li r9, obuf
    add r9, r9, r6
    stb r3, [r9+0]
    stb r4, [r9+1]
    addi r6, r6, 2
    add r5, r5, r3
    jmp rle_loop
rle_done:
    ; build output name: namebuf = argv[1] + ".gz"
    li r1, namebuf
    mov r2, r14
    call rt_strcpy
    li r9, namebuf
    add r1, r9, r0
    li r2, gz_suffix
    call rt_strcpy
    ; write the compressed file
    li r1, namebuf
    li r2, 0x241
    li r3, 0x1a4
    call sys_open
    cmpi r0, 0
    blt fail
    mov r4, r0
    mov r1, r4
    li r2, obuf
    mov r3, r6
    call sys_write
    mov r1, r4
    call sys_close
    ; remove the original
    mov r1, r14
    call sys_unlink
"""
        + _OK
        + _FAIL
        + _GZ_SUFFIX
        + _BSS
    )


def _tool_gunzip() -> str:
    """gunzip <file.gz>: expand RLE pairs; writes <file.gz>.out.

    (A real gunzip strips the suffix; keeping the name computation
    simple keeps the guest code focused on the I/O behaviour.)"""
    return (
        _PROLOGUE
        + """
    cmpi r12, 2
    blt fail
    li r11, 1
"""
        + _arg("r14", "r11")
        + """
    mov r1, r14
    li r2, 0
    call sys_open
    cmpi r0, 0
    blt fail
    mov r11, r0
    mov r1, r11
    li r2, iobuf
    li r3, 16384
    call sys_read
    cmpi r0, 0
    blt fail
    mov r12, r0
    mov r1, r11
    call sys_close
    ; expand pairs
    li r5, 0             ; in cursor
    li r6, 0             ; out cursor
expand_loop:
    cmp r5, r12
    bge expand_done
    li r9, iobuf
    add r9, r9, r5
    ldb r3, [r9+0]       ; count
    ldb r4, [r9+1]       ; value
    addi r5, r5, 2
fill_loop:
    cmpi r3, 0
    beq expand_loop
    li r9, obuf
    add r9, r9, r6
    stb r4, [r9+0]
    addi r6, r6, 1
    subi r3, r3, 1
    jmp fill_loop
expand_done:
    ; namebuf = argv[1] + ".out"
    li r1, namebuf
    mov r2, r14
    call rt_strcpy
    li r9, namebuf
    add r1, r9, r0
    li r2, out_suffix
    call rt_strcpy
    li r1, namebuf
    li r2, 0x241
    li r3, 0x1a4
    call sys_open
    cmpi r0, 0
    blt fail
    mov r4, r0
    mov r1, r4
    li r2, obuf
    mov r3, r6
    call sys_write
    mov r1, r4
    call sys_close
    ; remove the compressed file
    mov r1, r14
    call sys_unlink
"""
        + _OK
        + _FAIL
        + """
.section .rodata
out_suffix:
    .asciz ".out"
"""
        + _BSS
    )


def _tool_sort() -> str:
    """sort <file>: sort lines to stdout (selection sort on pointers)."""
    return (
        _PROLOGUE
        + """
    cmpi r12, 2
    blt fail
    li r11, 1
"""
        + _arg("r1", "r11")
        + """
    li r2, 0
    call sys_open
    cmpi r0, 0
    blt fail
    mov r11, r0
    mov r1, r11
    li r2, iobuf
    li r3, 16384
    call sys_read
    cmpi r0, 0
    blt fail
    mov r12, r0          ; size
    mov r1, r11
    call sys_close
    ; split into NUL-terminated lines; ptrbuf holds line pointers
    li r14, 0            ; line count
    li r5, 0             ; cursor
    li r6, iobuf         ; current line start
split_loop:
    cmp r5, r12
    bge split_done
    li r9, iobuf
    add r9, r9, r5
    ldb r10, [r9+0]
    cmpi r10, 10         ; '\\n'
    bne split_next
    li r10, 0
    stb r10, [r9+0]
    shli r9, r14, 2
    li r10, ptrbuf
    add r9, r9, r10
    st r6, [r9+0]
    addi r14, r14, 1
    li r9, iobuf
    add r6, r9, r5
    addi r6, r6, 1
split_next:
    addi r5, r5, 1
    jmp split_loop
split_done:
    ; selection sort ptrbuf[0..r14)
    li r11, 0            ; i
sort_outer:
    addi r9, r11, 1
    cmp r9, r14
    bge sort_done
    mov r12, r9          ; j = i+1
sort_inner:
    cmp r12, r14
    bge sort_next
    shli r9, r11, 2
    li r10, ptrbuf
    add r9, r9, r10
    ld r1, [r9+0]
    shli r9, r12, 2
    add r9, r9, r10
    ld r2, [r9+0]
    call rt_strcmp
    cmpi r0, 0
    ble no_swap
    ; swap pointers i and j
    shli r9, r11, 2
    li r10, ptrbuf
    add r9, r9, r10
    ld r4, [r9+0]
    shli r10, r12, 2
    li r5, ptrbuf
    add r10, r10, r5
    ld r5, [r10+0]
    st r5, [r9+0]
    st r4, [r10+0]
no_swap:
    addi r12, r12, 1
    jmp sort_inner
sort_next:
    addi r11, r11, 1
    jmp sort_outer
sort_done:
    ; write lines out
    li r11, 0
emit_loop:
    cmp r11, r14
    bge done
    shli r9, r11, 2
    li r10, ptrbuf
    add r9, r9, r10
    ld r4, [r9+0]
    mov r1, r4
    call rt_strlen
    mov r3, r0
    li r1, 1
    mov r2, r4
    call sys_write
    li r1, 1
    li r2, nl
    li r3, 1
    call sys_write
    addi r11, r11, 1
    jmp emit_loop
"""
        + _OK
        + _FAIL
        + """
.section .rodata
nl:
    .asciz "\\n"
"""
        + _BSS
    )


def _tool_wc() -> str:
    """wc <file>: count bytes and lines, print as two u32-rendered
    decimal numbers."""
    return (
        _PROLOGUE
        + """
    cmpi r12, 2
    blt fail
    li r11, 1
"""
        + _arg("r1", "r11")
        + """
    li r2, 0
    call sys_open
    cmpi r0, 0
    blt fail
    mov r11, r0
    li r13, 0            ; total bytes
    li r14, 0            ; newlines
count_loop:
    mov r1, r11
    li r2, iobuf
    li r3, 4096
    call sys_read
    cmpi r0, 0
    ble counted
    mov r12, r0
    add r13, r13, r12
    li r5, 0
scan:
    cmp r5, r12
    bge count_loop
    li r9, iobuf
    add r9, r9, r5
    ldb r10, [r9+0]
    cmpi r10, 10
    bne scan_next
    addi r14, r14, 1
scan_next:
    addi r5, r5, 1
    jmp scan
counted:
    mov r1, r11
    call sys_close
    ; print "<lines> <bytes>\\n"
    mov r1, r14
    call print_u32
    li r1, 1
    li r2, space
    li r3, 1
    call sys_write
    mov r1, r13
    call print_u32
    li r1, 1
    li r2, nl
    li r3, 1
    call sys_write
    jmp done
; print_u32(r1): decimal to stdout (clobbers r0..r6, r9, r10)
print_u32:
    li r9, namebuf
    addi r9, r9, 31
    li r10, 0
    stb r10, [r9+0]
    cmpi r1, 0
    bne pu_loop
    subi r9, r9, 1
    li r10, 48
    stb r10, [r9+0]
    jmp pu_emit
pu_loop:
    cmpi r1, 0
    beq pu_emit
    li r4, 10
    mod r5, r1, r4
    div r1, r1, r4
    addi r5, r5, 48
    subi r9, r9, 1
    stb r5, [r9+0]
    jmp pu_loop
pu_emit:
    mov r2, r9
    mov r1, r2
    call rt_strlen
    mov r3, r0
    li r1, 1
    call sys_write
    ret
"""
        + _OK
        + _FAIL
        + """
.section .rodata
space:
    .asciz " "
nl:
    .asciz "\\n"
"""
        + _BSS
    )




def _tool_sh() -> str:
    """sh: a tiny non-interactive shell.

    Reads a script from stdin (one command per line, words separated by
    single spaces; the first word is the program path), spawns each
    command, waits for it, and reports ``ok`` (exit 0) or ``ERR`` per
    line.  A spawned command writes into the shell's own stdout.  With
    a fully installed toolchain this is the paper's "system as a whole
    is protected" configuration: the shell and everything it launches
    are authenticated binaries."""
    return (
        _PROLOGUE
        + """
    ; read the whole script
    li r1, 0
    li r2, iobuf
    li r3, 16384
    call sys_read
    cmpi r0, 0
    ble done
    mov r13, r0          ; script length
    li r14, 0            ; cursor
line_loop:
    cmp r14, r13
    bge done
    li r11, 0            ; words on this line
    li r12, 0            ; in-word flag
scan_char:
    cmp r14, r13
    bge line_end
    li r9, iobuf
    add r9, r9, r14
    ldb r10, [r9+0]
    cmpi r10, 10         ; newline
    beq line_break
    cmpi r10, 32         ; space
    bne word_char
    li r10, 0
    stb r10, [r9+0]
    li r12, 0
    addi r14, r14, 1
    jmp scan_char
word_char:
    cmpi r12, 1
    beq next_char
    ; record the word start
    li r12, 1
    cmpi r11, 15
    bge next_char        ; too many words: ignore extras
    shli r10, r11, 2
    li r4, ptrbuf
    add r10, r10, r4
    st r9, [r10+0]
    addi r11, r11, 1
next_char:
    addi r14, r14, 1
    jmp scan_char
line_break:
    li r10, 0
    stb r10, [r9+0]
    addi r14, r14, 1
line_end:
    cmpi r11, 0
    beq line_loop        ; blank line
    ; NULL-terminate the argv array and spawn
    shli r10, r11, 2
    li r9, ptrbuf
    add r10, r10, r9
    li r4, 0
    st r4, [r10+0]
    ld r1, [r9+0]        ; argv[0]
    mov r2, r9
    call sys_spawn
    cmpi r0, 0
    ble report_err       ; -errno: nothing was spawned
    mov r1, r0           ; wait for exactly that child
    li r2, wstatus
    li r3, 0
    li r4, 0
    call sys_wait4
    li r9, wstatus
    ld r10, [r9+0]
    cmpi r10, 0          ; exited 0 and was not killed
    bne report_err
    li r1, 1
    li r2, msg_ok
    li r3, 3
    call sys_write
    jmp line_loop
report_err:
    li r1, 1
    li r2, msg_err
    li r3, 4
    call sys_write
    jmp line_loop
"""
        + _OK
        + _FAIL
        + """
.section .rodata
msg_ok:
    .asciz "ok\\n"
msg_err:
    .asciz "ERR\\n"
.section .data
wstatus:
    .word 0
"""
        + _BSS
    )



def _tool_head() -> str:
    """head <file>: print the first 5 lines."""
    return (
        _PROLOGUE
        + """
    cmpi r12, 2
    blt fail
    li r11, 1
"""
        + _arg("r1", "r11")
        + """
    li r2, 0
    call sys_open
    cmpi r0, 0
    blt fail
    mov r14, r0
    mov r1, r14
    li r2, iobuf
    li r3, 16384
    call sys_read
    cmpi r0, 0
    blt fail
    mov r12, r0          ; size
    mov r1, r14
    call sys_close
    ; find the end of line 5 (or EOF)
    li r11, 0            ; lines seen
    li r13, 0            ; cursor
scan:
    cmp r13, r12
    bge emit
    li r9, iobuf
    add r9, r9, r13
    ldb r10, [r9+0]
    addi r13, r13, 1
    cmpi r10, 10
    bne scan
    addi r11, r11, 1
    cmpi r11, 5
    blt scan
emit:
    li r1, 1
    li r2, iobuf
    mov r3, r13
    call sys_write
"""
        + _OK
        + _FAIL
        + _BSS
    )


def _tool_grep() -> str:
    """grep <needle> <file>: print lines containing the needle."""
    return (
        _PROLOGUE
        + """
    cmpi r12, 3
    blt fail
    li r11, 1
"""
        + _arg("r14", "r11")
        + """
    li r11, 2
"""
        + _arg("r1", "r11")
        + """
    li r2, 0
    call sys_open
    cmpi r0, 0
    blt fail
    mov r11, r0
    mov r1, r11
    li r2, iobuf
    li r3, 16384
    call sys_read
    cmpi r0, 0
    blt fail
    mov r12, r0          ; size
    mov r1, r11
    call sys_close
    ; needle length -> r13
    mov r1, r14
    call rt_strlen
    mov r13, r0
    cmpi r13, 0
    beq done
    li r5, 0             ; line start
line_scan:
    cmp r5, r12
    bge done
    ; find line end -> r6
    mov r6, r5
find_eol:
    cmp r6, r12
    bge have_eol
    li r9, iobuf
    add r9, r9, r6
    ldb r10, [r9+0]
    cmpi r10, 10
    beq have_eol
    addi r6, r6, 1
    jmp find_eol
have_eol:
    ; search needle in [r5, r6)
    mov r4, r5           ; candidate start
try_pos:
    add r9, r4, r13
    cmp r9, r6
    bgt next_line        ; needle no longer fits
    ; compare needle at r4
    li r3, 0             ; index into needle
cmp_loop:
    cmp r3, r13
    bge match
    li r9, iobuf
    add r9, r9, r4
    add r9, r9, r3
    ldb r10, [r9+0]
    add r9, r14, r3
    ldb r9, [r9+0]
    cmp r10, r9
    bne no_match
    addi r3, r3, 1
    jmp cmp_loop
no_match:
    addi r4, r4, 1
    jmp try_pos
match:
    ; print the line (including the newline when present)
    sub r3, r6, r5
    addi r3, r3, 1
    add r9, r5, r3
    cmp r9, r12
    ble len_ok
    sub r3, r12, r5
len_ok:
    li r9, iobuf
    add r2, r9, r5
    li r1, 1
    call sys_write
next_line:
    addi r5, r6, 1
    jmp line_scan
"""
        + _OK
        + _FAIL
        + _BSS
    )

_BUILDERS = {
    "cat": (_tool_cat, ("open", "read", "write", "close", "exit")),
    "cp": (_tool_cp, ("open", "read", "write", "close", "exit")),
    "mv": (_tool_mv, ("rename", "exit")),
    "rm": (_tool_rm, ("unlink", "exit")),
    "mkdir": (_tool_mkdir, ("mkdir", "exit")),
    "chmod": (_tool_chmod, ("chmod", "exit")),
    "chdir": (_tool_chdir, ("chdir", "getcwd", "write", "exit")),
    "ls": (_tool_ls, ("open", "getdirentries", "write", "close", "exit")),
    "tar": (_tool_tar, ("open", "read", "write", "close", "exit")),
    "untar": (_tool_untar, ("open", "read", "write", "close", "exit")),
    "gzip": (_tool_gzip, ("open", "read", "write", "close", "unlink", "exit")),
    "gunzip": (_tool_gunzip, ("open", "read", "write", "close", "unlink", "exit")),
    "sort": (_tool_sort, ("open", "read", "write", "close", "exit")),
    "wc": (_tool_wc, ("open", "read", "write", "close", "exit")),
    "sh": (_tool_sh, ("read", "write", "spawn", "wait4", "exit")),
    "head": (_tool_head, ("open", "read", "write", "close", "exit")),
    "grep": (_tool_grep, ("open", "read", "write", "close", "exit")),
}

TOOLS = tuple(sorted(_BUILDERS))


def tool_source(
    name: str, personality: str = "linux", startup_work: int = 0
) -> str:
    try:
        builder, syscalls = _BUILDERS[name]
    except KeyError:
        raise KeyError(f"no tool named {name!r}; have {', '.join(TOOLS)}") from None
    source = builder()
    if startup_work:
        # Model real process startup (loader, ld.so, libc init) that the
        # three-instruction _start elides; used by the Andrew benchmark
        # so the CPU/syscall balance matches a real tool invocation.
        source = source.replace(
            "_start:\n", f"_start:\n    cpuwork {startup_work}\n", 1
        )
    return source + "\n" + runtime_source(personality, syscalls)


def build_tool(
    name: str, personality: str = "linux", startup_work: int = 0
) -> SefBinary:
    """Assemble one tool for the given OS personality."""
    return assemble(
        tool_source(name, personality, startup_work),
        metadata={"program": name, "personality": personality},
    )
