package workloads

// CoreMarkSource returns a CoreMark-equivalent MiniC program running the
// given number of outer iterations over the three CoreMark kernels —
// linked-list processing (find/sort with function-pointer comparators),
// integer matrix operations, and a switch-driven state machine — all
// validated by a CRC16 exactly like the original's crcu16 chaining.
func CoreMarkSource(iterations int) string {
	return coremarkSource.render(iterations)
}

var coremarkSource = split(coremarkTemplate)

const coremarkTemplate = `
/* CoreMark equivalent (see package comment). */

/* ---------------- CRC (core_util) ---------------- */

unsigned short crcu8(unsigned char data, unsigned short crc) {
    int i;
    unsigned char x16, carry;
    for (i = 0; i < 8; i++) {
        x16 = (unsigned char)((data & 1) ^ ((unsigned char)crc & 1));
        data >>= 1;
        if (x16 == 1) {
            crc ^= 0x4002;
            carry = 1;
        } else {
            carry = 0;
        }
        crc >>= 1;
        if (carry) crc |= 0x8000;
        else crc &= 0x7fff;
    }
    return crc;
}

unsigned short crcu16(unsigned short newval, unsigned short crc) {
    crc = crcu8((unsigned char)newval, crc);
    crc = crcu8((unsigned char)(newval >> 8), crc);
    return crc;
}

unsigned short crcu32(unsigned x, unsigned short crc) {
    crc = crcu16((unsigned short)x, crc);
    crc = crcu16((unsigned short)(x >> 16), crc);
    return crc;
}

/* ---------------- Linked list (core_list_join) ---------------- */

struct ListData {
    short data16;
    short idx;
};

struct ListHead {
    struct ListHead *next;
    struct ListData *info;
};

struct ListHead heads[40];
struct ListData datas[40];
int headsUsed;
int datasUsed;

int calcFunc(short *pdata, int seed) {
    short data = *pdata;
    short data0 = data & 0x7;
    short dataN = data & 0x78;
    int result;
    if (data & 0x8000) return data & 0x7fff;
    switch (data0) {
    case 0:
        result = (dataN >> 3) + seed;
        break;
    case 1:
    case 2:
        result = (dataN >> 3) * seed;
        break;
    case 3:
        result = (dataN >> 3) ^ seed;
        break;
    case 4:
        result = seed - (dataN >> 3);
        break;
    default:
        result = seed;
    }
    /* Cache the result like CoreMark does (marks item computed). */
    *pdata = (short)(0x8000 | (result & 0x7fff));
    return result & 0x7fff;
}

int cmpComplex(struct ListData *a, struct ListData *b, int seed) {
    int val1 = calcFunc(&a->data16, seed);
    int val2 = calcFunc(&b->data16, seed);
    return val1 - val2;
}

int cmpIdx(struct ListData *a, struct ListData *b, int seed) {
    return a->idx - b->idx;
}

struct ListHead *listFind(struct ListHead *list, struct ListData *info) {
    while (list) {
        if (info->idx >= 0) {
            if (list->info->idx == info->idx) return list;
        } else {
            if ((list->info->data16 & 0xff) == (info->data16 & 0xff)) return list;
        }
        list = list->next;
    }
    return 0;
}

struct ListHead *listReverse(struct ListHead *list) {
    struct ListHead *next = 0;
    struct ListHead *tmp;
    while (list) {
        tmp = list->next;
        list->next = next;
        next = list;
        list = tmp;
    }
    return next;
}

/* Merge sort on singly-linked lists with a comparator, as in CoreMark. */
struct ListHead *listMergesort(struct ListHead *list,
                               int (*cmp)(struct ListData *, struct ListData *, int),
                               int seed) {
    struct ListHead *p;
    struct ListHead *q;
    struct ListHead *e;
    struct ListHead *tail;
    int insize, nmerges, psize, qsize, i;
    insize = 1;
    while (1) {
        p = list;
        list = 0;
        tail = 0;
        nmerges = 0;
        while (p) {
            nmerges++;
            q = p;
            psize = 0;
            for (i = 0; i < insize; i++) {
                psize++;
                q = q->next;
                if (!q) break;
            }
            qsize = insize;
            while (psize > 0 || (qsize > 0 && q)) {
                if (psize == 0) {
                    e = q; q = q->next; qsize--;
                } else if (qsize == 0 || !q) {
                    e = p; p = p->next; psize--;
                } else if (cmp(p->info, q->info, seed) <= 0) {
                    e = p; p = p->next; psize--;
                } else {
                    e = q; q = q->next; qsize--;
                }
                if (tail) tail->next = e;
                else list = e;
                tail = e;
            }
            p = q;
        }
        if (tail) tail->next = 0;
        if (nmerges <= 1) return list;
        insize *= 2;
    }
}

struct ListHead *listInsertNew(struct ListHead *insertPoint, short data16, short idx) {
    struct ListHead *newItem = &heads[headsUsed];
    headsUsed++;
    struct ListData *newInfo = &datas[datasUsed];
    datasUsed++;
    newInfo->data16 = data16;
    newInfo->idx = idx;
    newItem->info = newInfo;
    newItem->next = insertPoint->next;
    insertPoint->next = newItem;
    return newItem;
}

struct ListHead *listInit(int size, short seed) {
    struct ListHead *list = &heads[headsUsed];
    headsUsed++;
    struct ListData *info = &datas[datasUsed];
    datasUsed++;
    info->data16 = (short)0x8080;
    info->idx = 0;
    list->next = 0;
    list->info = info;
    int i;
    for (i = 0; i < size - 1; i++) {
        short dat = (short)((seed * i + i) & 0xffff);
        dat = (short)((dat & 0xff00) | (dat & 0xff));
        listInsertNew(list, dat, (short)(i + 1));
    }
    return list;
}

unsigned short benchListBody(struct ListHead *list, int iter, unsigned short initcrc) {
    unsigned short retval = initcrc;
    struct ListHead *thisItem;
    struct ListData infoCmp;
    int found = 0;
    int missed = 0;
    infoCmp.idx = (short)((iter >> 3) %% 10 + 1);
    infoCmp.data16 = 0;
    thisItem = listFind(list, &infoCmp);
    if (thisItem) {
        found++;
        retval = crcu16((unsigned short)thisItem->info->data16, retval);
    } else {
        missed++;
        retval = crcu16((unsigned short)(iter & 0xffff), retval);
    }
    /* Sort by transformed value, fold in the head, then restore index
       order, as core_bench_list does. */
    list = listMergesort(list, cmpComplex, iter);
    retval = crcu16((unsigned short)list->info->data16, retval);
    list = listMergesort(list, cmpIdx, 0);
    retval = crcu16((unsigned short)list->info->idx, retval);
    thisItem = list;
    while (thisItem) {
        retval = crcu16((unsigned short)thisItem->info->idx, retval);
        thisItem = thisItem->next;
    }
    retval = crcu16((unsigned short)(found * 256 + missed), retval);
    return retval;
}

/* ---------------- Matrix (core_matrix) ---------------- */

int matN;
short matA[100];
short matB[100];
int matC[100];

void matrixInit(int n, int seed) {
    int i, j;
    int order = 1;
    matN = n;
    for (i = 0; i < n; i++) {
        for (j = 0; j < n; j++) {
            short val = (short)((seed + order) %% 65 - 32);
            matA[i * n + j] = val;
            matB[i * n + j] = (short)(((seed + order) %% 33) - 16);
            order = order * 7 + 1;
        }
    }
}

void matrixMulMatrix(int n, int *c, short *a, short *b) {
    int i, j, k;
    for (i = 0; i < n; i++) {
        for (j = 0; j < n; j++) {
            c[i * n + j] = 0;
            for (k = 0; k < n; k++) {
                c[i * n + j] += (int)a[i * n + k] * (int)b[k * n + j];
            }
        }
    }
}

void matrixAddConst(int n, short *a, short val) {
    int i;
    for (i = 0; i < n * n; i++) a[i] = (short)(a[i] + val);
}

void matrixMulConst(int n, int *c, short *a, short val) {
    int i;
    for (i = 0; i < n * n; i++) c[i] = (int)a[i] * (int)val;
}

void matrixMulVect(int n, int *c, short *a, short *b) {
    int i, j;
    for (i = 0; i < n; i++) {
        c[i] = 0;
        for (j = 0; j < n; j++) c[i] += (int)a[i * n + j] * (int)b[j];
    }
}

unsigned short matrixSum(int n, int *c, unsigned short clipval) {
    int tmp = 0, prev = 0, cur = 0;
    unsigned short ret = 0;
    int i, j;
    for (i = 0; i < n; i++) {
        for (j = 0; j < n; j++) {
            cur = c[i * n + j];
            tmp += cur;
            if (tmp > clipval) {
                ret += 10;
                tmp = 0;
            } else {
                ret = (unsigned short)(ret + (cur & 0xff));
            }
            prev = cur;
        }
    }
    return ret + (unsigned short)(prev & 0xff);
}

unsigned short benchMatrixBody(int seed, unsigned short crc) {
    int n = matN;
    matrixAddConst(n, matA, (short)(seed & 0xff));
    matrixMulConst(n, matC, matA, (short)(seed & 0xff));
    crc = crcu16(matrixSum(n, matC, 32000), crc);
    matrixMulVect(n, matC, matA, matB);
    crc = crcu16(matrixSum(n, matC, 32000), crc);
    matrixMulMatrix(n, matC, matA, matB);
    crc = crcu16(matrixSum(n, matC, 32000), crc);
    matrixAddConst(n, matA, (short)(0 - (seed & 0xff)));
    return crc;
}

/* ---------------- State machine (core_state) ---------------- */

enum CoreState {
    CORE_START, CORE_INVALID, CORE_S1, CORE_S2,
    CORE_INT, CORE_FLOAT, CORE_EXPONENT, CORE_SCIENTIFIC,
    NUM_CORE_STATES
};

int stateCounts[NUM_CORE_STATES];
int transCounts[NUM_CORE_STATES];

int isDigit(char c) { return c >= '0' && c <= '9'; }

int coreStateTransition(char **instr) {
    char *str = *instr;
    char NEXT_SYMBOL;
    int state = CORE_START;
    while (*str != 0 && state != CORE_INVALID) {
        NEXT_SYMBOL = *str;
        if (NEXT_SYMBOL == ',') { str++; break; }
        switch (state) {
        case CORE_START:
            if (isDigit(NEXT_SYMBOL)) state = CORE_INT;
            else if (NEXT_SYMBOL == '+' || NEXT_SYMBOL == '-') state = CORE_S1;
            else if (NEXT_SYMBOL == '.') state = CORE_FLOAT;
            else { state = CORE_INVALID; transCounts[CORE_INVALID]++; }
            transCounts[CORE_START]++;
            break;
        case CORE_S1:
            if (isDigit(NEXT_SYMBOL)) { state = CORE_INT; transCounts[CORE_S1]++; }
            else if (NEXT_SYMBOL == '.') { state = CORE_FLOAT; transCounts[CORE_S1]++; }
            else { state = CORE_INVALID; transCounts[CORE_S1]++; }
            break;
        case CORE_INT:
            if (NEXT_SYMBOL == '.') { state = CORE_FLOAT; transCounts[CORE_INT]++; }
            else if (!isDigit(NEXT_SYMBOL)) { state = CORE_INVALID; transCounts[CORE_INT]++; }
            break;
        case CORE_FLOAT:
            if (NEXT_SYMBOL == 'E' || NEXT_SYMBOL == 'e') {
                state = CORE_S2;
                transCounts[CORE_FLOAT]++;
            } else if (!isDigit(NEXT_SYMBOL)) {
                state = CORE_INVALID;
                transCounts[CORE_FLOAT]++;
            }
            break;
        case CORE_S2:
            if (NEXT_SYMBOL == '+' || NEXT_SYMBOL == '-') {
                state = CORE_EXPONENT;
                transCounts[CORE_S2]++;
            } else {
                state = CORE_INVALID;
                transCounts[CORE_S2]++;
            }
            break;
        case CORE_EXPONENT:
            if (isDigit(NEXT_SYMBOL)) {
                state = CORE_SCIENTIFIC;
                transCounts[CORE_EXPONENT]++;
            } else {
                state = CORE_INVALID;
                transCounts[CORE_EXPONENT]++;
            }
            break;
        case CORE_SCIENTIFIC:
            if (!isDigit(NEXT_SYMBOL)) {
                state = CORE_INVALID;
                transCounts[CORE_SCIENTIFIC]++;
            }
            break;
        }
        str++;
    }
    *instr = str;
    return state;
}

char stateInput[64] = "5012,1.2e+5,-8.99,+42,.314,xyz,+,123456,2e-1,0.0";
char stateWork[64];

unsigned short benchStateBody(int seed, unsigned short crc) {
    int i;
    for (i = 0; i < NUM_CORE_STATES; i++) { stateCounts[i] = 0; transCounts[i] = 0; }
    /* Corrupt one character by the seed, run, then restore (CoreMark's
       p-mod pattern). */
    for (i = 0; i < 64; i++) stateWork[i] = stateInput[i];
    int pos = seed %% 47;
    stateWork[pos] = (char)('0' + (seed & 7));
    char *p = stateWork;
    while (*p != 0) {
        int fstate = coreStateTransition(&p);
        stateCounts[fstate]++;
    }
    for (i = 0; i < NUM_CORE_STATES; i++) {
        crc = crcu16((unsigned short)stateCounts[i], crc);
        crc = crcu16((unsigned short)transCounts[i], crc);
    }
    return crc;
}

/* ---------------- Main harness ---------------- */

int main() {
    int iterations = %d;
    unsigned short crcList = 0, crcMatrix = 0, crcState = 0;
    int iter;

    struct ListHead *list = listInit(20, 0x3fb7);
    matrixInit(8, 0x66);

    for (iter = 0; iter < iterations; iter++) {
        crcList = benchListBody(list, iter, crcList);
        crcMatrix = benchMatrixBody(iter, crcMatrix);
        crcState = benchStateBody(iter + 1, crcState);
    }

    unsigned short final = crcu16(crcList, 0);
    final = crcu16(crcMatrix, final);
    final = crcu16(crcState, final);
    putuint(crcList); putchar(' ');
    putuint(crcMatrix); putchar(' ');
    putuint(crcState); putchar(' ');
    putuint(final); putchar(10);
    return 0;
}
`
