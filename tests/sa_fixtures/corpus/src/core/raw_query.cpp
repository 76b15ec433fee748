// Fixture: seeded guarded-predict violations — per-row model queries in
// the core layer must go through the guard layer. The forest call on
// line 14 stays clean: the training-side forest has no predict member.
struct Model {
  double predict_row(const double* x, int n) const;
  struct Forest {
    double predict(const double* x) const;
  };
  Forest forest_;
};

double query(const Model& m, const double* x, int n) {
  const double a = m.predict_row(x, n);  // seeded: guarded-predict
  const double b = m.forest_.predict(x);  // clean: rule branch retired
  return a + b;
}
