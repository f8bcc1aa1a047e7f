package cpp

// BuiltinHeaders are minimal versions of the standard C headers used by
// the benchmark suite. The declarations match the library-function
// summaries registered in internal/libsum; the analysis never sees the
// bodies of these functions (the paper likewise supplies hand-written
// summaries of the potential pointer assignments in each library routine).
// The table is read-only: each header is lexed once per process, on
// first use (headerTokens).
var BuiltinHeaders = map[string]string{
	"stddef.h": `
#ifndef _STDDEF_H
#define _STDDEF_H
#define NULL 0
typedef unsigned long size_t;
#endif
`,
	"stdarg.h": `
#ifndef _STDARG_H
#define _STDARG_H
typedef char *va_list;
#define va_start(ap, last) (ap = (char *)0)
#define va_arg(ap, type) (0)
#define va_end(ap) (ap = (char *)0)
#endif
`,
	"stdlib.h": `
#ifndef _STDLIB_H
#define _STDLIB_H
#include <stddef.h>
void *malloc(size_t n);
void *calloc(size_t n, size_t sz);
void *realloc(void *p, size_t n);
void free(void *p);
void exit(int code);
void abort(void);
int atoi(const char *s);
long atol(const char *s);
double atof(const char *s);
int abs(int x);
long labs(long x);
int rand(void);
void srand(unsigned int seed);
void qsort(void *base, size_t n, size_t sz, int (*cmp)(const void *, const void *));
void *bsearch(const void *key, const void *base, size_t n, size_t sz,
              int (*cmp)(const void *, const void *));
char *getenv(const char *name);
int system(const char *cmd);
#define RAND_MAX 2147483647
#define EXIT_SUCCESS 0
#define EXIT_FAILURE 1
#endif
`,
	"unistd.h": `
#ifndef _UNISTD_H
#define _UNISTD_H
int execl(const char *path, const char *arg0, const char *arg1);
int execlp(const char *file, const char *arg0, const char *arg1);
int execv(const char *path, char *const argv[]);
int execvp(const char *file, char *const argv[]);
#endif
`,
	"string.h": `
#ifndef _STRING_H
#define _STRING_H
#include <stddef.h>
void *memcpy(void *dst, const void *src, size_t n);
void *memmove(void *dst, const void *src, size_t n);
void *memset(void *dst, int c, size_t n);
int memcmp(const void *a, const void *b, size_t n);
char *strcpy(char *dst, const char *src);
char *strncpy(char *dst, const char *src, size_t n);
char *strcat(char *dst, const char *src);
char *strncat(char *dst, const char *src, size_t n);
int strcmp(const char *a, const char *b);
int strncmp(const char *a, const char *b, size_t n);
size_t strlen(const char *s);
char *strchr(const char *s, int c);
char *strrchr(const char *s, int c);
char *strstr(const char *hay, const char *needle);
char *strtok(char *s, const char *delim);
char *strdup(const char *s);
char *strpbrk(const char *s, const char *accept);
size_t strspn(const char *s, const char *accept);
size_t strcspn(const char *s, const char *reject);
#endif
`,
	"stdio.h": `
#ifndef _STDIO_H
#define _STDIO_H
#include <stddef.h>
typedef struct _iobuf { int _cnt; char *_ptr; char *_base; int _flag; int _fd; } FILE;
extern FILE *stdin;
extern FILE *stdout;
extern FILE *stderr;
#define EOF (-1)
#define BUFSIZ 1024
FILE *fopen(const char *path, const char *mode);
int fclose(FILE *f);
int fflush(FILE *f);
int fgetc(FILE *f);
int getc(FILE *f);
int getchar(void);
char *fgets(char *buf, int n, FILE *f);
char *gets(char *buf);
int fputc(int c, FILE *f);
int putc(int c, FILE *f);
int putchar(int c);
int fputs(const char *s, FILE *f);
int puts(const char *s);
size_t fread(void *buf, size_t sz, size_t n, FILE *f);
size_t fwrite(const void *buf, size_t sz, size_t n, FILE *f);
int fseek(FILE *f, long off, int whence);
long ftell(FILE *f);
void rewind(FILE *f);
int feof(FILE *f);
int ferror(FILE *f);
int printf(const char *fmt, ...);
int fprintf(FILE *f, const char *fmt, ...);
int sprintf(char *buf, const char *fmt, ...);
int scanf(const char *fmt, ...);
int fscanf(FILE *f, const char *fmt, ...);
int sscanf(const char *s, const char *fmt, ...);
int ungetc(int c, FILE *f);
int remove(const char *path);
int rename(const char *from, const char *to);
#define SEEK_SET 0
#define SEEK_CUR 1
#define SEEK_END 2
#endif
`,
	"math.h": `
#ifndef _MATH_H
#define _MATH_H
double sqrt(double x);
double fabs(double x);
double exp(double x);
double log(double x);
double log10(double x);
double sin(double x);
double cos(double x);
double tan(double x);
double atan(double x);
double atan2(double y, double x);
double pow(double x, double y);
double floor(double x);
double ceil(double x);
double fmod(double x, double y);
#define M_PI 3.14159265358979323846
#define HUGE_VAL 1e308
#endif
`,
	"ctype.h": `
#ifndef _CTYPE_H
#define _CTYPE_H
int isalpha(int c);
int isdigit(int c);
int isalnum(int c);
int isspace(int c);
int isupper(int c);
int islower(int c);
int ispunct(int c);
int isprint(int c);
int toupper(int c);
int tolower(int c);
#endif
`,
	"assert.h": `
#ifndef _ASSERT_H
#define _ASSERT_H
void _assert_fail(const char *msg);
#define assert(e) ((e) ? 0 : (_assert_fail("assert"), 0))
#endif
`,
	"limits.h": `
#ifndef _LIMITS_H
#define _LIMITS_H
#define CHAR_BIT 8
#define CHAR_MAX 127
#define CHAR_MIN (-128)
#define INT_MAX 2147483647
#define INT_MIN (-2147483647 - 1)
#define LONG_MAX 9223372036854775807L
#define LONG_MIN (-9223372036854775807L - 1L)
#define UCHAR_MAX 255
#define USHRT_MAX 65535
#define SHRT_MAX 32767
#define SHRT_MIN (-32768)
#endif
`,
}
