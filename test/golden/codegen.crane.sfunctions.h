#ifndef UMLFRONT_SFUNCTIONS_H
#define UMLFRONT_SFUNCTIONS_H

void sfun_control(const double *in, int n_in, double *out, int n_out);
void sfun_drive(const double *in, int n_in, double *out, int n_out);
void sfun_sense(const double *in, int n_in, double *out, int n_out);

#endif
