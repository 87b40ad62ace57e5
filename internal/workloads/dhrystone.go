// Package workloads provides the benchmark programs of the paper's
// evaluation (§V-A) as MiniC sources: a Dhrystone 2.1 equivalent and a
// CoreMark equivalent, plus microkernels used by unit benches.
//
// The originals are licensed C programs compiled with clang in the paper;
// these re-implementations preserve the workload properties the figures
// depend on — Dhrystone's record assignment, string comparison and
// function-call density; CoreMark's linked-list pointer chasing, integer
// matrix work, switch-driven state machine, CRC validation, and its high
// count of live values across merging control flow (the reason CoreMark
// RAW code is RMOV-heavy in Fig 15). See DESIGN.md §5.
package workloads

// DhrystoneSource returns a Dhrystone-2.1-equivalent MiniC program
// executing the given number of loop iterations. The program prints a
// checksum line derived from the same variables Dhrystone validates and
// exits 0 on success.
func DhrystoneSource(iterations int) string {
	return dhrystoneSource.render(iterations)
}

var dhrystoneSource = split(dhrystoneTemplate)

const dhrystoneTemplate = `
/* Dhrystone 2.1 equivalent (see package comment). */

enum Enumeration { Ident1, Ident2, Ident3, Ident4, Ident5 };

struct Record {
    struct Record *PtrComp;
    int Discr;
    int EnumComp;
    int IntComp;
    char StringComp[31];
};

int IntGlob;
int BoolGlob;
char Ch1Glob;
char Ch2Glob;
int Arr1Glob[50];
int Arr2Glob[50][50];
struct Record RecordA;
struct Record RecordB;
struct Record *PtrGlb;
struct Record *PtrGlbNext;

int strcpy30(char *dst, char *src) {
    int i = 0;
    while ((dst[i] = src[i]) != 0) i++;
    return i;
}

int strcmp30(char *a, char *b) {
    int i = 0;
    while (a[i] != 0 && a[i] == b[i]) i++;
    return a[i] - b[i];
}

int Func1(char ChPar1, char ChPar2) {
    char ChLoc1 = ChPar1;
    char ChLoc2 = ChLoc1;
    if (ChLoc2 != ChPar2) return Ident1;
    Ch1Glob = ChLoc1;
    return Ident2;
}

int Func2(char *StrPar1, char *StrPar2) {
    int IntLoc = 2;
    char ChLoc = 0;
    while (IntLoc <= 2) {
        if (Func1(StrPar1[IntLoc], StrPar2[IntLoc + 1]) == Ident1) {
            ChLoc = 'A';
            IntLoc = IntLoc + 1;
        }
    }
    if (ChLoc >= 'W' && ChLoc < 'Z') IntLoc = 7;
    if (ChLoc == 'R') return 1;
    if (strcmp30(StrPar1, StrPar2) > 0) {
        IntLoc = IntLoc + 7;
        IntGlob = IntLoc;
        return 1;
    }
    return 0;
}

int Func3(int EnumParIn) {
    int EnumLoc = EnumParIn;
    if (EnumLoc == Ident3) return 1;
    return 0;
}

void Proc6(int EnumVal, int *EnumRefPar) {
    *EnumRefPar = EnumVal;
    if (!Func3(EnumVal)) *EnumRefPar = Ident4;
    switch (EnumVal) {
    case Ident1:
        *EnumRefPar = Ident1;
        break;
    case Ident2:
        if (IntGlob > 100) *EnumRefPar = Ident1;
        else *EnumRefPar = Ident4;
        break;
    case Ident3:
        *EnumRefPar = Ident2;
        break;
    case Ident4:
        break;
    case Ident5:
        *EnumRefPar = Ident3;
        break;
    }
}

void Proc7(int IntParI1, int IntParI2, int *IntParOut) {
    int IntLoc = IntParI1 + 2;
    *IntParOut = IntParI2 + IntLoc;
}

void Proc8(int *Arr1Par, int *Arr2Par, int IntParI1, int IntParI2) {
    int IntLoc = IntParI1 + 5;
    int IntIndex;
    Arr1Par[IntLoc] = IntParI2;
    Arr1Par[IntLoc + 1] = Arr1Par[IntLoc];
    Arr1Par[IntLoc + 30] = IntLoc;
    for (IntIndex = IntLoc; IntIndex <= IntLoc + 1; IntIndex++)
        Arr2Par[IntLoc * 50 + IntIndex] = IntLoc;
    Arr2Par[IntLoc * 50 + IntLoc - 1] = Arr2Par[IntLoc * 50 + IntLoc - 1] + 1;
    Arr2Par[(IntLoc + 20) * 50 + IntLoc] = Arr1Par[IntLoc];
    IntGlob = 5;
}

void Proc5() {
    Ch1Glob = 'A';
    BoolGlob = 0;
}

void Proc4() {
    int BoolLoc = Ch1Glob == 'A';
    BoolLoc = BoolLoc | BoolGlob;
    Ch2Glob = 'B';
}

void Proc3(struct Record **PtrRefPar) {
    if (PtrGlb != 0) *PtrRefPar = PtrGlb->PtrComp;
    Proc7(10, IntGlob, &PtrGlb->IntComp);
}

void Proc2(int *IntParIO) {
    int IntLoc = *IntParIO + 10;
    int EnumLoc = 0;
    int done = 0;
    while (!done) {
        if (Ch1Glob == 'A') {
            IntLoc = IntLoc - 1;
            *IntParIO = IntLoc - IntGlob;
            EnumLoc = Ident1;
        }
        if (EnumLoc == Ident1) done = 1;
    }
}

void Proc1(struct Record *PtrValPar) {
    struct Record *NextRecord = PtrValPar->PtrComp;
    *NextRecord = *PtrGlb;
    PtrValPar->IntComp = 5;
    NextRecord->IntComp = PtrValPar->IntComp;
    NextRecord->PtrComp = PtrValPar->PtrComp;
    Proc3(&NextRecord->PtrComp);
    if (NextRecord->Discr == Ident1) {
        NextRecord->IntComp = 6;
        Proc6(PtrValPar->EnumComp, &NextRecord->EnumComp);
        NextRecord->PtrComp = PtrGlb->PtrComp;
        Proc7(NextRecord->IntComp, 10, &NextRecord->IntComp);
    } else {
        *PtrValPar = *NextRecord;
    }
}

char Str1Loc[31];
char Str2Loc[31];

int main() {
    int IntLoc1, IntLoc2, IntLoc3;
    char ChIndex;
    int EnumLoc;
    int RunIndex;
    int NumberOfRuns = %d;

    PtrGlbNext = &RecordB;
    PtrGlb = &RecordA;
    PtrGlb->PtrComp = PtrGlbNext;
    PtrGlb->Discr = Ident1;
    PtrGlb->EnumComp = Ident3;
    PtrGlb->IntComp = 40;
    strcpy30(PtrGlb->StringComp, "DHRYSTONE PROGRAM, SOME STRING");
    strcpy30(Str1Loc, "DHRYSTONE PROGRAM, 1'ST STRING");
    Arr2Glob[8][7] = 10;

    for (RunIndex = 1; RunIndex <= NumberOfRuns; RunIndex++) {
        Proc5();
        Proc4();
        IntLoc1 = 2;
        IntLoc2 = 3;
        strcpy30(Str2Loc, "DHRYSTONE PROGRAM, 2'ND STRING");
        EnumLoc = Ident2;
        BoolGlob = !Func2(Str1Loc, Str2Loc);
        while (IntLoc1 < IntLoc2) {
            IntLoc3 = 5 * IntLoc1 - IntLoc2;
            Proc7(IntLoc1, IntLoc2, &IntLoc3);
            IntLoc1 = IntLoc1 + 1;
        }
        Proc8(Arr1Glob, &Arr2Glob[0][0], IntLoc1, IntLoc3);
        Proc1(PtrGlb);
        for (ChIndex = 'A'; ChIndex <= Ch2Glob; ChIndex++) {
            if (EnumLoc == Func1(ChIndex, 'C'))
                Proc6(Ident1, &EnumLoc);
        }
        IntLoc3 = IntLoc2 * IntLoc1;
        IntLoc2 = IntLoc3 / IntLoc1;
        IntLoc2 = 7 * (IntLoc3 - IntLoc2) - IntLoc1;
        Proc2(&IntLoc1);
    }

    /* Deterministic state checksum: every execution engine (IR
       interpreter, STRAIGHT, RISC-V; RAW and RE+) must print the same
       value, and invariant pieces are validated like Dhrystone does. */
    int ok = 1;
    if (IntGlob != 5) ok = 0;
    if (Ch1Glob != 'A') ok = 0;
    if (Ch2Glob != 'B') ok = 0;
    if (Arr2Glob[8][7] != NumberOfRuns + 10) ok = 0;
    int sum = IntGlob;
    sum = sum * 31 + BoolGlob;
    sum = sum * 31 + Ch1Glob;
    sum = sum * 31 + Ch2Glob;
    sum = sum * 31 + Arr1Glob[8];
    sum = sum * 31 + PtrGlb->Discr;
    sum = sum * 31 + PtrGlb->IntComp;
    sum = sum * 31 + RecordB.IntComp;
    sum = sum * 31 + RecordB.EnumComp;
    sum = sum * 31 + IntLoc1;
    sum = sum * 31 + IntLoc2;
    sum = sum * 31 + IntLoc3;
    sum = sum * 31 + strcmp30(Str1Loc, Str2Loc);
    putint(ok);
    putchar(' ');
    putint(sum);
    putchar(10);
    return ok == 1 ? 0 : 1;
}
`
