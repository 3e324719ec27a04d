/* planted unit tiny: hand-written; expected verdicts in tiny_unit.expected */
int tiny_f0(int pos a, int neg b, int nonneg c, int nonzero d, int e, int* nonnull p, int* q) {
  int r = 0;
  int pos t1 = (a * 2);
  r = (e / b);
  int nonzero t2 = c;
  r = (r + *q);
  r = (r + *p);
  int* nonnull s5 = &r;
  int* nonnull s6 = q;
  int neg t3 = -a;
  int nonneg t4 = (c + (a * 3));
  int pos t5 = (a - a);
  r = (e / (a * d));
  r = (e / (t3 * 2));
  return r;
}
int tiny_f1(int pos a, int neg b, int nonneg c, int nonzero d, int e, int* nonnull p, int* q) {
  int r = 0;
  int nonzero t0 = 0;
  int nonneg t1 = 0;
  int pos t2 = -b;
  int neg t3 = (b * a);
  int neg t4 = (a * b);
  return r;
}
