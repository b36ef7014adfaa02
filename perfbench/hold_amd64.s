#include "textflag.h"

// func spinPause(n int)
TEXT ·spinPause(SB), NOSPLIT, $0-8
	MOVQ n+0(FP), CX
loop:
	PAUSE
	DECQ CX
	JNZ  loop
	RET
