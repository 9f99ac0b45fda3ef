global a[64];
global b[64];

fn main() {
    for i in 0..64 {
        a[i] = i * 2;
    }
    for j in 0..64 {
        b[j] = a[j] + 1;
    }
    return b[63];
}
